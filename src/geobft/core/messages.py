"""The closed family of protocol message envelopes.

Client-facing traffic (Write, ReadWeak, Result), channel-internal
traffic (ChSend, ChMove, ChShare, ChCert, ChProgress), checkpoint
traffic, ordering-internal traffic and reconfiguration requests. Each
is a frozen dataclass registered with the canonical codec; wire codes
are part of the on-disk trace format and must not be reused. Each
instance keeps its bytes, digest and shape verdict as attributes at
first use, so a message is never changed after construction and holds
no list or dict.

The field annotations are the schema: ``codec.well_formed`` checks a
message against them where an envelope is received or a message decoded,
so a handler reads fields whose types it can rely on. Every tuple names
its element type (a bare ``tuple`` has no shape rule); ``object`` takes
any value the codec encodes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .codec import canonical_encode, register_message
from .crypto import Mac, Sig
from .ids import ClientId, ReplicaId

register_message(10)(ReplicaId)
register_message(11)(ClientId)


@register_message(12)
@dataclass(frozen=True)
class ChannelId:
    """A request or commit channel between the agreement group and one execution group."""

    kind: str  # "req" or "commit"
    group: int

    def __str__(self) -> str:
        return f"{self.kind}{self.group}"


# --------------------------------------------------------------------------
# client <-> execution group
# --------------------------------------------------------------------------

@register_message(20)
@dataclass(frozen=True)
class Write:
    """A state-mutating operation, or a strongly consistent read when read_only."""

    op: bytes
    client: ClientId
    t_c: int
    read_only: bool = False


@register_message(21)
@dataclass(frozen=True)
class ReadWeak:
    op: bytes
    client: ClientId
    nonce: int


@register_message(22)
@dataclass(frozen=True)
class Result:
    client: ClientId
    t_c: int  # echoes the request counter (weak reads: the nonce)
    reply: bytes
    weak: bool = False
    resubmit: bool = False


# --------------------------------------------------------------------------
# ordered payloads
# --------------------------------------------------------------------------

@register_message(23)
@dataclass(frozen=True)
class AddGroup:
    group: int
    region: str
    members: tuple[ReplicaId, ...]
    client: ClientId
    t_c: int


@register_message(24)
@dataclass(frozen=True)
class RemoveGroup:
    group: int
    client: ClientId
    t_c: int


@register_message(25)
@dataclass(frozen=True)
class Request:
    """A client request wrapped by its contact execution group for ordering.

    The client signature travels with the request so the ordering layer
    can validate authenticity independent of the channel quorum.
    """

    inner: Union[Write, AddGroup, RemoveGroup]
    inner_sig: Sig
    group: int  # contact execution group


@register_message(26)
@dataclass(frozen=True)
class FullReq:
    """Batch item carrying the complete request plus its contact group."""

    write: Write  # ordering annotates only writes as FullReq
    write_sig: Sig
    contact: int


@register_message(27)
@dataclass(frozen=True)
class Placeholder:
    """Batch item replacing a strong read for groups that must not execute it."""

    client: ClientId
    t_c: int


@register_message(28)
@dataclass(frozen=True)
class AdminItem:
    """Reconfiguration outcome, annotated deterministically at ordering time."""

    action: str  # "add" or "remove"
    group: int
    region: str
    members: tuple[ReplicaId, ...]
    client: ClientId
    t_c: int
    contact: int
    ok: bool
    detail: str


@register_message(29)
@dataclass(frozen=True)
class Execute:
    """Per-sequence commit-channel payload (one batch of ordered items)."""

    s: int
    items: tuple[Union[FullReq, Placeholder, AdminItem], ...]


# --------------------------------------------------------------------------
# channel-internal (always signed by the sending endpoint)
# --------------------------------------------------------------------------

@register_message(30)
@dataclass(frozen=True)
class ChSend:
    channel: ChannelId
    sc: int
    p: int
    payload: object


@register_message(31)
@dataclass(frozen=True)
class ChMove:
    channel: ChannelId
    sc: int
    p: int
    collector: Optional[int] = None  # SC receiver moves announce collector choice
    counter: Optional[int] = None    # replay protection for SC receiver moves


@register_message(32)
@dataclass(frozen=True)
class ChShare:
    """SC intra-sender-group signed hash of a pending ChSend content."""

    channel: ChannelId
    sc: int
    p: int
    digest: bytes


@register_message(33)
@dataclass(frozen=True)
class ChCert:
    """SC collector certificate: payload plus f_s+1 matching signature shares."""

    channel: ChannelId
    sc: int
    p: int
    payload: object
    shares: tuple[Sig, ...]


@register_message(34)
@dataclass(frozen=True)
class ChProgress:
    channel: ChannelId
    pvec: tuple[tuple[int, int], ...]  # ((sc, highest certified position), ...)


# --------------------------------------------------------------------------
# checkpoint component (group-internal, signed)
# --------------------------------------------------------------------------

@register_message(40)
@dataclass(frozen=True)
class Checkpoint:
    scope: str  # "ag" or "ex"
    group: int
    s: int
    digest: bytes


@register_message(41)
@dataclass(frozen=True)
class CpAnnounce:
    scope: str
    group: int
    s: int


@register_message(42)
@dataclass(frozen=True)
class CpQuery:
    scope: str
    s_min: int


@register_message(43)
@dataclass(frozen=True)
class CpState:
    scope: str
    group: int  # origin group whose members certified this state
    s: int
    state: bytes
    cert: tuple[Sig, ...]  # f+1 Sig records over Checkpoint(scope, group, s, digest)


# --------------------------------------------------------------------------
# ordering internals (agreement group only)
# --------------------------------------------------------------------------

@register_message(50)
@dataclass(frozen=True)
class ObPrePrepare:
    view: int
    s: int
    batch: tuple[Request, ...]


@register_message(51)
@dataclass(frozen=True)
class ObPrepare:
    view: int
    s: int
    digest: bytes


@register_message(52)
@dataclass(frozen=True)
class ObCommit:
    view: int
    s: int
    digest: bytes


@register_message(53)
@dataclass(frozen=True)
class PreparedProof:
    view: int
    s: int
    batch: tuple[Request, ...]
    preprepare_sig: Sig
    prepare_sigs: tuple[Sig, ...]


@register_message(54)
@dataclass(frozen=True)
class ObViewChange:
    view: int
    low_water: int
    prepared: tuple[PreparedProof, ...]


@register_message(55)
@dataclass(frozen=True)
class ObNewView:
    view: int
    view_changes: tuple[VcRecord, ...]  # the signed ObViewChange votes
    proposals: tuple[tuple[int, tuple[Request, ...]], ...]  # ((s, batch), ...)


@register_message(56)
@dataclass(frozen=True)
class VcRecord:
    vc: ObViewChange
    sig: Sig


@register_message(57)
@dataclass(frozen=True)
class ObFetch:
    s_from: int
    s_to: int


@register_message(58)
@dataclass(frozen=True)
class ObSeqInfo:
    view: int
    s: int
    batch: tuple[Request, ...]
    commit_sigs: tuple[Sig, ...]  # 2f_a+1 Sig records over ObCommit(view, s, digest(batch))


@register_message(59)
@dataclass(frozen=True)
class OracleSubmit:
    req: Request


@register_message(60)
@dataclass(frozen=True)
class OracleAssign:
    s: int
    batch: tuple[Request, ...]


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

@register_message(70)
@dataclass(frozen=True)
class RegistryQuery:
    nonce: int


@register_message(71)
@dataclass(frozen=True)
class RegistryInfo:
    nonce: int
    version: int
    groups: tuple[tuple[int, str, tuple[ReplicaId, ...]], ...]  # sorted by group id


# the Envelope message header (tag, type code) plus the auth tuple's
# sequence header (tag, u32 length)
_ENVELOPE_FRAMING = 8
# a Sig's message header plus its digest's bytes header (tag, u32 length)
_SIG_FRAMING = 8


@register_message(72)
@dataclass(frozen=True)
class Envelope:
    """What actually travels on the simulated network."""

    payload: object
    auth: tuple[Union[Sig, Mac], ...] = field(default_factory=tuple)

    # kept by wire_size, and by Node.handle_envelope (the crypto provider
    # that accepted an envelope whose authenticators are all Sigs); None
    # until this envelope holds its own
    _wire_size = None
    _sigs_ok = None

    def wire_size(self) -> int:
        """len(canonical_encode(self)), from the bytes the payload, each
        signer and each other authenticator already store, without
        encoding the envelope or a Sig; kept as _wire_size, so an
        envelope multicast to many is sized once."""
        size = self._wire_size
        if size is None:
            size = _ENVELOPE_FRAMING + len(canonical_encode(self.payload))
            for a in self.auth:
                if type(a) is Sig:
                    size += _SIG_FRAMING + len(canonical_encode(a.signer)) + len(a.digest)
                else:
                    size += len(canonical_encode(a))
            self.__dict__["_wire_size"] = size
        return size

    def first_sig(self) -> Optional[Sig]:
        for a in self.auth:
            if isinstance(a, Sig):
                return a
        return None
