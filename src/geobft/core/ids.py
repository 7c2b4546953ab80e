"""Principal identifiers and per-scenario fault parameters."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

AGREEMENT = "ag"
EXECUTION = "ex"

# The agreement group always has group id 0; execution groups use ids >= 1.
AGREEMENT_GROUP = 0


# A node id is interned: each constructor path (a direct call,
# canonical_decode, dataclasses.replace, copy, pickle through __reduce__)
# gives back the one object of its principal, so dict and set lookups hit
# on identity. Fields must have their declared types exactly; anything
# else raises TypeError, so two ids that encode differently are never
# one object.
#
# An id is a tuple of its fields, so hashing and comparing it run in C:
# per-peer tables keyed by node id are looked up on every message. Its
# hash is tuple's, hash(fields), which is also the hash dataclass would
# generate. That hash varies with PYTHONHASHSEED (the role is a str), and
# traces do not, so no trace depends on the order of a set of ids.
# Nothing reads an id as a sequence or compares one with a plain tuple:
# the codec and the shape rule test exact types, so a plain tuple of the
# same fields is not an id to them.


def _new_id(cls, table: dict, fields: tuple, name: str):
    nid = tuple.__new__(cls, fields)
    for f, value in zip(cls.__dataclass_fields__, fields):
        object.__setattr__(nid, f, value)
    object.__setattr__(nid, "_name", name)
    table[fields] = nid
    return nid


def _not_an_id(cls, fields):
    return TypeError(f"{cls.__name__}({', '.join(map(repr, fields))}): fields must be "
                     f"{', '.join(f.type for f in cls.__dataclass_fields__.values())}")


@dataclass(frozen=True, eq=False, init=False)
class ReplicaId(tuple):
    role: str  # AGREEMENT or EXECUTION
    group: int
    index: int = field()  # else dataclass takes the inherited tuple.index as its default

    def __new__(cls, role: str, group: int, index: int):
        key = (role, group, index)
        if type(role) is not str or type(group) is not int or type(index) is not int:
            raise _not_an_id(cls, key)
        return _REPLICAS.get(key) or _new_id(cls, _REPLICAS, key, f"{role}{group}:{index}")

    def __reduce__(self):
        return ReplicaId, (self.role, self.group, self.index)

    def __str__(self) -> str:
        return self._name


@dataclass(frozen=True, eq=False, init=False)
class ClientId(tuple):
    index: int = field()

    def __new__(cls, index: int):
        key = (index,)
        if type(index) is not int:
            raise _not_an_id(cls, key)
        return _CLIENTS.get(key) or _new_id(cls, _CLIENTS, key, f"c{index}")

    def __reduce__(self):
        return ClientId, (self.index,)

    def __str__(self) -> str:
        return self._name


# fields tuple -> the one id; process-wide, since every constructor path
# must find it, and harmless to share, since ids are immutable
_REPLICAS: dict = {}
_CLIENTS: dict = {}


NodeId = Union[ReplicaId, ClientId]


@dataclass(frozen=True)
class FaultParams:
    """Tolerated fault counts; group sizes and channel quorums derive from them."""

    f_a: int
    f_e: int

    def __post_init__(self):
        if self.f_a < 0 or self.f_e < 0:
            raise ValueError("fault bounds must be non-negative")

    @property
    def agreement_size(self) -> int:
        return 3 * self.f_a + 1

    @property
    def execution_size(self) -> int:
        return 2 * self.f_e + 1

    def request_channel(self) -> tuple[int, int]:
        """(f_s, f_r) for an execution-group -> agreement-group channel."""
        return self.f_e, self.f_a

    def commit_channel(self) -> tuple[int, int]:
        """(f_s, f_r) for the agreement-group -> execution-group channel."""
        return self.f_a, self.f_e
