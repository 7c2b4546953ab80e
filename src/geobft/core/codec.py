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
from operator import attrgetter
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

# class -> (message tag and type code, function giving its field values as a tuple)
_layout: dict[type, tuple] = {}
_type_fields: dict[type, tuple[str, ...]] = {}
_code_type: dict[int, type] = {}


class CodecError(ValueError):
    pass


def register_message(code: int):
    """Class decorator assigning a stable wire code to a frozen dataclass."""

    def deco(cls):
        if code in _code_type:
            raise CodecError(f"duplicate message code {code}")
        if not (dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen):
            raise CodecError(f"{cls.__name__} must be a frozen dataclass")
        names = tuple(f.name for f in dataclasses.fields(cls))
        _layout[cls] = (_HDR.pack(_TAG_MSG, code), _field_getter(names))
        _type_fields[cls] = names
        _code_type[code] = cls
        return cls

    return deco


def _field_getter(names: tuple):
    """A function giving a message's field values as a tuple, in order."""
    if len(names) >= 2:
        return attrgetter(*names)  # gives a tuple for two or more names
    return lambda msg: tuple(getattr(msg, name) for name in names)


def message_store(value) -> Optional[dict]:
    """The per-instance store of a registered message, or None for other values.

    Values kept there are derived from the message's fields, so equal
    instances may hold them or not without any visible difference.
    """
    return value.__dict__ if type(value) in _layout else None


def _message_bytes(msg) -> bytes:
    store = msg.__dict__
    raw = store.get(_BYTES_KEY)
    if raw is None:
        header, fields = _layout[type(msg)]
        out = bytearray(header)
        _encode_values(fields(msg), out)
        raw = store[_BYTES_KEY] = bytes(out)
    return raw


def _encode_values(values, out: bytearray) -> None:
    """Append the encoding of each value to out: the one place that holds
    each type's tag and length rule. A registered message is spliced in
    from its stored bytes; a subclass of a built-in type (an IntEnum, say)
    encodes as its base type."""
    for value in values:
        kind = type(value)
        if kind in _layout:
            raw = value.__dict__.get(_BYTES_KEY)
            out += raw if raw is not None else _message_bytes(value)
        elif kind is int:
            if not 0 <= value < 1 << 64:
                raise CodecError(f"integer out of u64 range: {value}")
            out.append(_TAG_INT)
            out += _U64.pack(value)
        elif kind is bytes:
            out.append(_TAG_BYTES)
            out += _U32.pack(len(value))
            out += value
        elif value is None:
            out.append(_TAG_NONE)
        elif kind is tuple or kind is list:
            out.append(_TAG_SEQ)
            out += _U32.pack(len(value))
            _encode_values(value, out)
        elif kind is str:
            raw = value.encode("utf-8")
            out.append(_TAG_STR)
            out += _U32.pack(len(raw))
            out += raw
        elif kind is bool:
            out.append(_TAG_TRUE if value else _TAG_FALSE)
        else:
            _encode_values((_as_base_type(value),), out)


def _as_base_type(value):
    """A subclass instance as a value of the built-in type the codec knows."""
    for base in (int, bytes, str, tuple):  # bool has no subclasses
        if isinstance(value, base):
            return base(value)
    if isinstance(value, list):
        return tuple(value)
    raise CodecError(f"unregistered type: {type(value).__name__}")


def canonical_encode(value) -> bytes:
    if type(value) in _layout:
        return _message_bytes(value)
    out = bytearray()
    _encode_values((value,), out)
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
