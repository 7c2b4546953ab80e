"""Canonical byte encoding for protocol messages.

Every value is rendered as a tag byte followed by a fixed-width or
length-prefixed body, so the encoding is deterministic and injective;
it is the byte form that gets hashed, signed and written to trace logs.
Registered dataclasses encode as a type code plus their fields in
declaration order.

The bytes of a registered message are computed once per instance: the
first encode stores them on the instance, outside its dataclass fields,
and encoding an enclosing message or sequence splices the stored bytes
in. What an instance keeps is read as an attribute, whose class default
is None until the instance holds its own: ``_canonical`` (the bytes),
``_digest`` (kept by the crypto provider) and ``_well_formed``; an
``Envelope`` also keeps ``_wire_size`` and ``_sigs_ok``. Registered
messages must therefore be frozen dataclasses that stay immutable: no
list or dict fields, and no ``object.__setattr__`` on a field after
construction.

The field annotations of the registered messages are the one shape rule
for what a field may hold. ``well_formed(msg)`` checks a message against
them: an ``int`` is an exact int in the u64 range, ``bool``, ``bytes`` and
``str`` are exactly those types, a registered class is a well-formed
instance of it, ``Optional``/``Union`` take any of their alternatives,
``tuple[X, ...]`` is a tuple of X and ``tuple[X, Y]`` a tuple of exactly
those, and ``object`` is any value the codec encodes, whose nested
messages are checked in turn. The verdict is kept on the message,
beside the bytes and digest. It is asked in the two places where outside
values come in: ``Node.handle_envelope`` admits only a well-formed
envelope, and decoding refuses a message that is not well-formed.

Decoding is total: malformed input of any kind raises ``CodecError``,
and so does a decoded message that is not well-formed.
"""
from __future__ import annotations

import dataclasses
import functools
import struct
import typing
from operator import attrgetter
from typing import Callable, Union

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

# where a message instance keeps its encoding and its well_formed verdict;
# its class holds None under each name until the instance keeps its own
_BYTES_KEY = "_canonical"
_SHAPE_KEY = "_well_formed"
_U64_END = 1 << 64
_SCALARS = (bool, bytes, str)  # shape-checked by exact type alone

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
        # an instance's kept bytes, digest and shape verdict until it keeps
        # its own, and the class's shape check until its first call
        # compiles it (_shape)
        cls._canonical = cls._digest = cls._well_formed = None
        cls._shape_check = _compile_shape_check
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


def _message_bytes(msg) -> bytes:
    """Encode msg, whose bytes are not kept yet (every caller reads
    msg._canonical first), and keep them."""
    header, fields = _layout[type(msg)]
    out = bytearray(header)
    _encode_values(fields(msg), out)
    raw = msg.__dict__[_BYTES_KEY] = bytes(out)
    return raw


def _encode_values(values, out: bytearray) -> None:
    """Append the encoding of each value to out: the one place that holds
    each type's tag and length rule. A registered message is spliced in
    from its stored bytes; a subclass of a built-in type (an IntEnum, say)
    encodes as its base type."""
    for value in values:
        kind = type(value)
        if kind in _layout:
            out += value._canonical or _message_bytes(value)
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
        return value._canonical or _message_bytes(value)
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
            msg = cls(*values)
        except TypeError as exc:  # a node id whose fields have the wrong types
            raise CodecError(str(exc)) from None
        if not well_formed(msg):
            raise CodecError(f"{cls.__name__} fields do not match their annotations")
        return msg, pos
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


# -- the shape rule ------------------------------------------------------------
#
# Each registered class's annotations are compiled, at its first check,
# into one function of inline tests on local names (_shape), with no call
# per field or tuple item. A nested message is tested one of three ways:
# - where every class the annotation admits holds another message but
#   no tuple or object field, here or in any message it may hold (a Sig
#   or Mac authenticator, a certificate's Sigs, a FullReq's Write), its
#   fields are tested inline and no verdict is kept;
# - where the annotation admits any other class (a node id, a ChannelId,
#   a Request, an Execute's FullReq), it goes through well_formed, which
#   keeps its verdict;
# - in an object field (an envelope's or a channel's payload), it goes
#   through its own class's check and no verdict is kept.
# Each way is the cheapest of those measured for its kind: the time in the
# check on the two perfbench workloads at seed 3 (in-process, interleaved
# runs) was 4-5 times as long with a recursive interpreter over the same
# annotations that keeps every verdict, and 14-47% longer with compiled
# checks that keep the verdict of the first kind, of the third kind, or
# of both. Keeping verdicts costs most where a message is new to every
# check (an authenticator, a payload); reading one pays where a message
# is shared (node ids, and the Requests and FullReqs that several
# replicas forward).

def well_formed(msg) -> bool:
    """msg, a registered message, holds in every field what the field's
    annotation allows (see the module docstring); nested messages are
    checked in turn. The verdict is kept on msg, as _well_formed."""
    ok = msg._well_formed  # the kept verdict, else the class's None
    if ok is None:
        ok = msg.__dict__[_SHAPE_KEY] = msg._shape_check()
    return ok


def _compile_shape_check(msg) -> bool:
    """A class's shape check until its first call: compile the check, in
    place of this function, then run it. Only once every message module
    has loaded do the annotations resolve; compiling every class at import
    instead made perfbench's setup_s a fifth to a quarter longer."""
    return _shape(type(msg))(msg)


def _shape(cls) -> Callable:
    """Compile cls's field annotations into its check, the method
    cls._shape_check (see above)."""
    names = {"well_formed": well_formed, "_is_value": _is_value, "_layout": _layout}
    lines = ["def check(v):"]
    _emit_fields("v", cls, names, lines, 1)
    lines.append("    return True")
    exec(compile("\n".join(lines), f"<shape of {cls.__name__}>", "exec"), names)
    check = cls._shape_check = names["check"]
    return check


@functools.cache
def _fields(cls) -> tuple:
    """(name, resolved annotation) of each field, in declaration order."""
    hints = typing.get_type_hints(cls)
    return tuple((name, hints[name]) for name in _type_fields[cls])


def _emit_fields(v: str, cls, names: dict, lines: list, indent: int) -> None:
    """Append the tests of every field of the cls instance named v."""
    for field, hint in _fields(cls):
        x = f"x{len(lines)}"  # a local name no other line binds
        lines.append(f"{'    ' * indent}{x} = {v}.{field}")
        _emit(x, hint, names, lines, indent)


def _emit(x: str, hint, names: dict, lines: list, indent: int) -> None:
    """Append statements that return False unless the value bound to the
    local name x holds what the resolved annotation hint allows."""
    pad = "    " * indent
    args = typing.get_args(hint)
    kinds = args if typing.get_origin(hint) is Union else (hint,)
    if typing.get_origin(hint) is tuple and len(args) == 2 and args[1] is Ellipsis:
        item = f"x{len(lines)}"
        lines += [f"{pad}if type({x}) is not tuple: return False", f"{pad}for {item} in {x}:"]
        _emit(item, args[0], names, lines, indent + 1)
    elif typing.get_origin(hint) is tuple and args:
        lines.append(f"{pad}if type({x}) is not tuple or len({x}) != {len(args)}: return False")
        for i, arg in enumerate(args):
            item = f"x{len(lines)}"
            lines.append(f"{pad}{item} = {x}[{i}]")
            _emit(item, arg, names, lines, indent)
    elif hint is object:
        lines += [f"{pad}if type({x}) in _layout:",
                  f"{pad}    if not {x}._shape_check(): return False",
                  f"{pad}elif not _is_value({x}): return False"]
    elif all(k in _layout for k in kinds) and all(map(_inline, kinds)):
        for n, kind in enumerate(kinds):
            names[f"_{kind.__name__}"] = kind
            lines.append(f"{pad}{'elif' if n else 'if'} type({x}) is _{kind.__name__}:")
            _emit_fields(x, kind, names, lines, indent + 1)
        lines.append(f"{pad}else: return False")
    else:
        tests = " or ".join(_test(x, kind, names) for kind in kinds)
        lines.append(f"{pad}if not ({tests}): return False")


def _test(x: str, kind, names: dict) -> str:
    """An expression, true when the value bound to x is a kind: a scalar
    type or a message class, whose verdict is kept."""
    if kind is int:
        return f"type({x}) is int and 0 <= {x} < {_U64_END}"
    if kind is type(None):
        return f"{x} is None"
    if kind in _SCALARS:
        return f"type({x}) is {kind.__name__}"
    if kind in _layout:
        names[f"_{kind.__name__}"] = kind
        return f"type({x}) is _{kind.__name__} and ({x}.{_SHAPE_KEY} or well_formed({x}))"
    raise CodecError(f"no shape rule for the annotation {kind!r}")


def _inline(cls) -> bool:
    """cls is tested inline where its class is known: it holds another
    message but no tuple or object field, here or in any message it may
    hold."""
    def flat(hint):
        if hint in (int, type(None)) or hint in _SCALARS:
            return True
        if hint in _layout:
            return all(flat(h) for _, h in _fields(hint))
        return typing.get_origin(hint) is Union and all(map(flat, typing.get_args(hint)))
    hints = [h for _, h in _fields(cls)]
    return all(map(flat, hints)) and any(
        k in _layout for h in hints
        for k in (typing.get_args(h) if typing.get_origin(h) is Union else (h,)))


def _is_value(value) -> bool:
    """value is one the codec encodes (lists aside), with well-formed messages:
    the rule for an object field."""
    kind = type(value)
    if kind in _layout:
        return value._shape_check()
    if kind is tuple:
        return all(map(_is_value, value))
    if kind is int:
        return 0 <= value < _U64_END
    return kind is bytes or kind is str or kind is bool or value is None
