"""Canonical byte encoding for protocol messages.

Every value is rendered as a tag byte followed by a fixed-width or
length-prefixed body, so the encoding is deterministic and injective;
it is the byte form that gets hashed, signed and written to trace logs.
Registered dataclasses encode as a type code plus their fields in
declaration order.

The bytes of a registered message are computed once per instance: the
first encode stores them on the instance, outside its dataclass fields,
and encoding an enclosing message or sequence splices the stored bytes
in. ``message_store`` gives other layers the same per-instance store
(the crypto provider keeps the digest there). Registered messages must
therefore be frozen dataclasses that stay immutable: no list or dict
fields, and no ``object.__setattr__`` on a field after construction.

Decoding is total: malformed input of any kind raises ``CodecError``.
"""
from __future__ import annotations

import dataclasses
import struct
from typing import Optional

_TAG_NONE = 0
_TAG_FALSE = 1
_TAG_TRUE = 2
_TAG_INT = 3
_TAG_BYTES = 4
_TAG_STR = 5
_TAG_SEQ = 6
_TAG_MSG = 7

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_HDR = struct.Struct(">BH")  # message tag + type code

_BYTES_KEY = "_canonical"  # where a message instance keeps its encoding

_type_header: dict[type, bytes] = {}
_code_type: dict[int, type] = {}
_type_fields: dict[type, tuple[str, ...]] = {}


class CodecError(ValueError):
    pass


def register_message(code: int):
    """Class decorator assigning a stable wire code to a frozen dataclass."""

    def deco(cls):
        if code in _code_type:
            raise CodecError(f"duplicate message code {code}")
        if not (dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen):
            raise CodecError(f"{cls.__name__} must be a frozen dataclass")
        _type_header[cls] = _HDR.pack(_TAG_MSG, code)
        _code_type[code] = cls
        _type_fields[cls] = tuple(f.name for f in dataclasses.fields(cls))
        _encoders[cls] = _encode_message
        return cls

    return deco


def message_store(value) -> Optional[dict]:
    """The per-instance store of a registered message, or None for other values.

    Values kept there are derived from the message's fields, so equal
    instances may hold them or not without any visible difference.
    """
    return value.__dict__ if type(value) in _type_header else None


def _message_bytes(msg) -> bytes:
    store = msg.__dict__
    raw = store.get(_BYTES_KEY)
    if raw is None:
        cls = type(msg)
        out = bytearray(_type_header[cls])
        for name in _type_fields[cls]:
            _encode_into(getattr(msg, name), out)
        raw = store[_BYTES_KEY] = bytes(out)
    return raw


def _encode_none(value, out: bytearray) -> None:
    out.append(_TAG_NONE)


def _encode_bool(value, out: bytearray) -> None:
    out.append(_TAG_TRUE if value else _TAG_FALSE)


def _encode_int(value, out: bytearray) -> None:
    if not 0 <= value < 1 << 64:
        raise CodecError(f"integer out of u64 range: {value}")
    out.append(_TAG_INT)
    out += _U64.pack(value)


def _encode_bytes(value, out: bytearray) -> None:
    out.append(_TAG_BYTES)
    out += _U32.pack(len(value))
    out += value


def _encode_str(value, out: bytearray) -> None:
    raw = value.encode("utf-8")
    out.append(_TAG_STR)
    out += _U32.pack(len(raw))
    out += raw


def _encode_seq(value, out: bytearray) -> None:
    out.append(_TAG_SEQ)
    out += _U32.pack(len(value))
    for item in value:
        _encode_into(item, out)


def _encode_message(value, out: bytearray) -> None:
    out += _message_bytes(value)


# exact type -> encoder; register_message adds each message class
_encoders: dict = {type(None): _encode_none, bool: _encode_bool, int: _encode_int,
                   bytes: _encode_bytes, str: _encode_str,
                   tuple: _encode_seq, list: _encode_seq}


def _encode_into(value, out: bytearray) -> None:
    encode = _encoders.get(type(value))
    if encode is None:
        encode = _encoder_by_isinstance(value)
    encode(value, out)


def _encoder_by_isinstance(value):
    """The encoder for a subclass of a built-in type the codec knows."""
    if isinstance(value, int):  # bool has no subclasses
        return _encode_int
    if isinstance(value, bytes):
        return _encode_bytes
    if isinstance(value, str):
        return _encode_str
    if isinstance(value, (tuple, list)):
        return _encode_seq
    raise CodecError(f"unregistered type: {type(value).__name__}")


def canonical_encode(value) -> bytes:
    if type(value) in _type_header:
        return _message_bytes(value)
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


def _decode_from(buf: bytes, pos: int):
    # A fixed-width read past the end raises IndexError or struct.error,
    # which canonical_decode reports; a slice would come up short silently,
    # so lengths are checked here.
    tag = buf[pos]
    pos += 1
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_INT:
        return _U64.unpack_from(buf, pos)[0], pos + 8
    if tag == _TAG_BYTES or tag == _TAG_STR:
        n = _U32.unpack_from(buf, pos)[0]
        pos += 4
        end = pos + n
        if end > len(buf):
            raise CodecError(f"length {n} at offset {pos - 4} runs past the end")
        if tag == _TAG_BYTES:
            return buf[pos:end], end
        try:
            return buf[pos:end].decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise CodecError(f"bad UTF-8 at offset {pos}: {exc.reason}") from None
    if tag == _TAG_SEQ:
        n = _U32.unpack_from(buf, pos)[0]
        pos += 4
        items = []
        for _ in range(n):
            item, pos = _decode_from(buf, pos)
            items.append(item)
        return tuple(items), pos
    if tag == _TAG_MSG:
        code = _U16.unpack_from(buf, pos)[0]
        pos += 2
        cls = _code_type.get(code)
        if cls is None:
            raise CodecError(f"unknown message code {code}")
        values = []
        for _ in _type_fields[cls]:
            value, pos = _decode_from(buf, pos)
            values.append(value)
        try:
            return cls(*values), pos
        except TypeError as exc:  # a node id whose fields have the wrong types
            raise CodecError(str(exc)) from None
    raise CodecError(f"bad tag {tag} at offset {pos - 1}")


def canonical_decode(buf: bytes):
    try:
        value, pos = _decode_from(buf, 0)
    except (IndexError, struct.error):
        raise CodecError("truncated input") from None
    except RecursionError:
        raise CodecError("input nested too deeply") from None
    if pos != len(buf):
        raise CodecError(f"{len(buf) - pos} trailing bytes")
    return value
