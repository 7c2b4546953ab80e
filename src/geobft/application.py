"""Reference application: a deterministic key-value store."""
from __future__ import annotations

from .core.codec import CodecError, canonical_decode, canonical_encode

ABSENT = b"\x00absent"
PLACEHOLDER = b"\x00placeholder"
RESUBMIT = b"\x00resubmit"
BAD_OP = b"\x00bad-op"


def put_op(key: str, value: bytes) -> bytes:
    return canonical_encode(("put", key, value))


def get_op(key: str) -> bytes:
    return canonical_encode(("get", key))


def parse_op(op: bytes):
    """("put", key, value) or ("get", key) if op is the encoding of one, with
    a str key and a bytes value; else None. An op is client input, so a
    malformed one gets BAD_OP and changes nothing."""
    try:
        decoded = canonical_decode(op)
    except CodecError:
        return None
    shape = tuple(map(type, decoded)) if type(decoded) is tuple else ()
    if shape == (str, str, bytes) and decoded[0] == "put" or \
            shape == (str, str) and decoded[0] == "get":
        return decoded
    return None


class KvApplication:
    """Deterministic state machine: equal op sequences yield equal snapshots."""

    def __init__(self):
        self.store: dict[str, bytes] = {}

    def execute(self, op: bytes) -> bytes:
        decoded = parse_op(op)
        if decoded is None:
            return BAD_OP
        if decoded[0] == "put":
            _, key, value = decoded
            self.store[key] = value
            return b"ok"
        return self.store.get(decoded[1], ABSENT)

    def execute_readonly(self, op: bytes) -> bytes:
        decoded = parse_op(op)
        if decoded is None or decoded[0] != "get":
            return BAD_OP
        return self.store.get(decoded[1], ABSENT)

    def snapshot(self) -> bytes:
        return canonical_encode(tuple(sorted(self.store.items())))

    def restore(self, raw: bytes) -> None:
        self.store = {k: v for k, v in canonical_decode(raw)}
