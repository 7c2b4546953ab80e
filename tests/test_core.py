import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geobft.core import (
    BoundCrypto,
    ClientId,
    CodecError,
    ConfigurationError,
    CryptoProvider,
    FaultParams,
    GroupKey,
    ReplicaId,
    Sig,
    canonical_decode,
    canonical_encode,
)
from geobft.core.messages import (
    ChCert,
    ChMove,
    ChSend,
    ChannelId,
    Envelope,
    Execute,
    FullReq,
    Placeholder,
    Result,
    Write,
)
from tests.conftest import rebuilt


def test_fault_params_sizes():
    fp = FaultParams(1, 1)
    assert fp.agreement_size == 4
    assert fp.execution_size == 3
    assert fp.request_channel() == (1, 1)
    fp2 = FaultParams(2, 1)
    assert fp2.agreement_size == 7
    assert fp2.request_channel() == (1, 2)
    assert fp2.commit_channel() == (2, 1)


def test_encode_roundtrip_identity():
    w = Write(b"put k v", ClientId(1), 1)
    raw = canonical_encode(w)
    assert canonical_decode(raw) == w


def test_encode_injective_on_counter():
    a = Write(b"put k v", ClientId(1), 1)
    b = Write(b"put k v", ClientId(1), 2)
    assert canonical_encode(a) != canonical_encode(b)


def test_encode_deterministic():
    r = FullReq(Write(b"x", ClientId(2), 5), _sig(), 1)
    e = Execute(5, (r,))
    assert canonical_encode(e) == canonical_encode(Execute(5, (r,)))


def _sig():
    provider = CryptoProvider()
    c = ClientId(2)
    provider.register_principal(c)
    return provider.sign(c, b"x")


def _random_message(rng):
    kind = rng.randrange(5)
    c = ClientId(rng.randrange(10))
    if kind == 0:
        return Write(bytes(rng.randrange(256) for _ in range(rng.randrange(20))),
                     c, rng.randrange(1 << 32), rng.random() < 0.5)
    if kind == 1:
        return ChSend(ChannelId("req", rng.randrange(5)), rng.randrange(100),
                      rng.randrange(1, 1000), b"m" * rng.randrange(5))
    if kind == 2:
        return ChMove(ChannelId("commit", 1), 0, rng.randrange(1, 500),
                      rng.choice((None, rng.randrange(4))),
                      rng.choice((None, rng.randrange(100))))
    if kind == 3:
        return Result(c, rng.randrange(100), b"r" * rng.randrange(8),
                      rng.random() < 0.5, rng.random() < 0.1)
    return Execute(rng.randrange(1000),
                   (Placeholder(c, rng.randrange(50)),) * rng.randrange(3))


def test_encoding_canonical_over_random_messages():
    rng = random.Random(7)
    seen = {}
    for _ in range(1000):
        msg = _random_message(rng)
        raw = canonical_encode(msg)
        assert canonical_encode(msg) == raw
        assert canonical_decode(raw) == msg
        if raw in seen:
            assert seen[raw] == msg
        seen[raw] = msg


class TestCrypto:
    def setup_method(self):
        self.provider = CryptoProvider()
        self.group = GroupKey("ex", 1)
        self.members = [ReplicaId("ex", 1, i) for i in range(3)]
        self.provider.register_group(self.group, self.members)
        self.client = ClientId(0)
        self.provider.register_principal(self.client)

    def in_group(self, msg, sig):
        """The caller-side check of a group signature: a member signed msg."""
        return sig.signer in self.provider.group_members(self.group) \
            and self.provider.valid_sig(msg, sig)

    def test_sign_verify_in_group(self):
        msg = Write(b"op", self.client, 1)
        sig = self.provider.sign(self.members[0], msg)
        assert self.in_group(msg, sig)
        assert not self.in_group(msg, self.provider.sign(self.client, msg))

    def test_tampered_payload_fails(self):
        msg = Write(b"op", self.client, 1)
        sig = self.provider.sign(self.members[0], msg)
        tampered = Write(b"oq", self.client, 1)
        assert not self.in_group(tampered, sig)

    def test_wrong_principal_fails(self):
        msg = Write(b"op", self.client, 1)
        sig = self.provider.sign(self.members[0], msg)
        # the caller checks who signed; the provider, that the signer is known
        assert not (sig.signer == self.members[1] and self.provider.valid_sig(msg, sig))
        assert not self.provider.valid_sig(msg, Sig(ReplicaId("ex", 9, 0), sig.digest))

    def test_mac_vector_verified_by_all_group_members(self):
        msg = Write(b"op", self.client, 1)
        mac = self.provider.mac(self.client, self.group, msg)
        for member in self.members:
            assert self.provider.valid_mac(msg, mac, member)
        outsider = ReplicaId("ex", 2, 0)
        assert not self.provider.valid_mac(msg, mac, outsider)

    def test_unknown_principal_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            self.provider.sign(ClientId(99), b"x")

    def test_bound_crypto_pins_identity(self):
        bound = BoundCrypto(self.provider, self.members[0])
        sig = bound.sign(b"payload")
        assert sig.signer == self.members[0]


# -- decoding is total ---------------------------------------------------------

def _assert_decodes_canonically_or_rejects(buf):
    try:
        value = canonical_decode(buf)
    except CodecError:
        return False
    assert canonical_encode(value) == buf
    return True


def test_decode_total_on_seeded_buffers():
    """Random, byte-mutated and truncated buffers: CodecError or a value
    whose encoding is the buffer, never any other exception."""
    rng = random.Random(11)
    valid = [canonical_encode(_random_message(rng)) for _ in range(300)]
    accepted = 0
    for i in range(20000):
        raw = valid[rng.randrange(len(valid))]
        if i % 3 == 0:
            buf = bytes(rng.randrange(256) for _ in range(rng.randrange(24)))
            if buf and rng.random() < 0.5:
                buf = bytes([rng.randrange(8)]) + buf[1:]  # a valid tag
        elif i % 3 == 1:
            buf = bytearray(raw)
            for _ in range(rng.randrange(1, 4)):
                buf[rng.randrange(len(buf))] = rng.randrange(256)
            buf = bytes(buf)
        else:
            buf = raw[:rng.randrange(len(raw))]
            with pytest.raises(CodecError):
                canonical_decode(buf)
            continue
        accepted += _assert_decodes_canonically_or_rejects(buf)
    assert 0 < accepted < 20000


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.binary(max_size=64))
def test_decode_total_on_arbitrary_bytes(buf):
    _assert_decodes_canonically_or_rejects(buf)


def test_decode_rejects_malformed_structure():
    write = canonical_encode(Write(b"op", ClientId(1), 1))
    for buf in (b"", bytes([3, 0, 0]), bytes([4, 0, 0, 0, 9, 1]),
                bytes([5, 0, 0, 0, 2, 0xC3, 0x28]), bytes([6]) + b"\xff" * 4,
                bytes([7, 0]), write[:-1], write + b"\x00"):
        with pytest.raises(CodecError):
            canonical_decode(buf)
    with pytest.raises(CodecError):
        canonical_decode(bytes([6, 0, 0, 0, 1]) * 5000)  # nested too deeply


# -- stored bytes and digests cannot be seen -------------------------------------

def _cache_cases():
    provider = CryptoProvider()
    client = ClientId(4)
    group = GroupKey("ex", 1)
    members = [ReplicaId("ex", 1, i) for i in range(3)]
    provider.register_principal(client)
    provider.register_group(group, members)
    write = Write(b"put k v", client, 9)
    execute = Execute(7, (FullReq(write, provider.sign(client, write), 1),
                          Placeholder(client, 3)))
    payload = ChSend(ChannelId("commit", 1), 0, 5, execute)
    cert = ChCert(ChannelId("commit", 1), 0, 5, execute,
                  tuple(provider.sign(m, payload) for m in members[:2]))
    env = Envelope(payload, (provider.mac(client, group, payload),))
    return provider, members[0], [
        (execute, lambda m: dataclasses.replace(m, s=m.s + 1)),
        (cert, lambda m: dataclasses.replace(m, p=m.p + 1)),
        (env, lambda m: dataclasses.replace(
            m, payload=dataclasses.replace(m.payload, p=m.payload.p + 1))),
    ]


@pytest.mark.parametrize("case", range(3), ids=["execute", "chcert", "envelope"])
def test_stored_bytes_and_digest_are_invisible(case):
    provider, signer, cases = _cache_cases()
    built, tweak = cases[case]
    msg = rebuilt(built)  # no part of it has been encoded yet
    before = (repr(msg), hash(msg), msg == built, built == msg)
    raw = canonical_encode(msg)
    assert raw == canonical_encode(rebuilt(msg))
    assert canonical_encode(msg) == raw
    sig = provider.sign(signer, msg)
    assert (repr(msg), hash(msg), msg == built, built == msg) == before == (
        repr(built), hash(built), True, True)
    assert canonical_decode(raw) == msg
    assert provider.valid_sig(msg, sig)
    assert provider.valid_sig(rebuilt(msg), sig)
    assert not provider.valid_sig(tweak(msg), sig)


def test_only_frozen_dataclasses_can_be_registered():
    from geobft.core import register_message

    @dataclasses.dataclass
    class Mutable:
        x: int

    with pytest.raises(CodecError):
        register_message(999)(Mutable)


# -- node ids ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class _PlainReplicaId:
    role: str
    group: int
    index: int


@pytest.mark.parametrize("nid, fields, name, text", [
    (ReplicaId("ag", 0, 3), ("ag", 0, 3), "ag0:3", "ReplicaId(role='ag', group=0, index=3)"),
    (ReplicaId("ex", 2, 1), ("ex", 2, 1), "ex2:1", "ReplicaId(role='ex', group=2, index=1)"),
    (ClientId(7), (7,), "c7", "ClientId(index=7)"),
])
def test_node_id_hash_and_name_pinned(nid, fields, name, text):
    # Set iteration order over node ids, and with it the byte identity of
    # traces, depends on these hashes: the stored hash must equal the one
    # dataclass generates, hash(fields tuple).
    assert hash(nid) == hash(fields)
    if isinstance(nid, ReplicaId):
        assert hash(nid) == hash(_PlainReplicaId(*fields))
    assert str(nid) == name
    assert repr(nid) == text
    assert nid == type(nid)(*fields) and nid != type(nid)(*fields[:-1], fields[-1] + 1)
    moved = dataclasses.replace(nid, index=nid.index + 1)
    assert hash(moved) == hash(fields[:-1] + (fields[-1] + 1,))
    assert str(moved) == name[:-1] + str(fields[-1] + 1)


@pytest.mark.parametrize("make", [
    lambda: ReplicaId("ex", 1, 0),
    lambda: ReplicaId(role="ex", group=1, index=0),
    lambda: canonical_decode(canonical_encode(Sig(ReplicaId("ex", 1, 0), b"d" * 16))).signer,
    lambda: dataclasses.replace(ReplicaId("ex", 1, 7), index=0),
    lambda: copy.copy(ReplicaId("ex", 1, 0)),
    lambda: copy.deepcopy((ReplicaId("ex", 1, 0),))[0],
    lambda: pickle.loads(pickle.dumps(ReplicaId("ex", 1, 0))),
], ids=["call", "keywords", "decoded-signer", "replace", "copy", "deepcopy", "pickle"])
def test_every_constructor_path_gives_the_interned_replica_id(make):
    assert make() is ReplicaId("ex", 1, 0)


def test_client_ids_are_interned_and_never_equal_a_replica_id():
    c = ClientId(1)
    assert ClientId(1) is c
    assert canonical_decode(canonical_encode(Write(b"op", c, 1))).client is c
    assert dataclasses.replace(ClientId(5), index=1) is c
    assert copy.deepcopy(c) is c and pickle.loads(pickle.dumps(c)) is c
    for nid in (ReplicaId("ex", 1, 1), ReplicaId("ag", 0, 1)):
        assert c != nid and nid != c
        assert len({c, nid}) == 2
    assert ReplicaId("ex", 1, 0) != ReplicaId("ex", 1, 1)
    assert ReplicaId("ex", 1, 0) != ReplicaId("ag", 1, 0)


@pytest.mark.parametrize("odd", [True, 1.0, None, b"1", "1", (1,)])
def test_node_id_fields_must_have_their_declared_types(odd):
    # an id that would encode unlike the interned one is never that object
    for make in (lambda: ReplicaId("ex", odd, 1), lambda: ReplicaId("ex", 1, odd),
                 lambda: ClientId(odd)):
        with pytest.raises(TypeError):
            make()
    if not isinstance(odd, str):
        with pytest.raises(TypeError):
            ReplicaId(odd, 1, 1)


def test_decoder_rejects_a_node_id_with_a_bool_field():
    raw = canonical_encode(ReplicaId("ex", 1, 0))
    odd = raw.replace(canonical_encode(1), canonical_encode(True), 1)
    assert odd != raw
    with pytest.raises(CodecError):
        canonical_decode(odd)


_UNPICKLE_SCRIPT = (
    "import pickle, sys\n"
    "import geobft.core.messages\n"
    "nid, cid = pickle.loads(bytes.fromhex(sys.argv[1]))\n"
    "print(hash(nid) == hash(('ex', 2, 1)), str(nid), hash(cid) == hash((7,)), str(cid))\n"
)


def test_pickled_ids_rehash_in_the_loading_interpreter():
    """A string's hash depends on PYTHONHASHSEED, so a loaded id computes
    its hash anew rather than carrying the dumping interpreter's."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONHASHSEED": "4242",
           "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    blob = pickle.dumps((ReplicaId("ex", 2, 1), ClientId(7))).hex()
    out = subprocess.run([sys.executable, "-c", _UNPICKLE_SCRIPT, blob],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True", "ex2:1", "True", "c7"]
