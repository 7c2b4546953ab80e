"""Principal identifiers and per-scenario fault parameters."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

AGREEMENT = "ag"
EXECUTION = "ex"

# The agreement group always has group id 0; execution groups use ids >= 1.
AGREEMENT_GROUP = 0


# Node ids are hashed and printed on every dispatch and trace record, so
# each computes its hash and name once, on first use, and keeps them in
# its instance dict outside the dataclass fields. The hash must stay
# equal to the one dataclass would generate, hash(fields tuple): set
# iteration order, and with it the byte identity of traces, depends on it.

@dataclass(frozen=True)
class ReplicaId:
    role: str  # AGREEMENT or EXECUTION
    group: int
    index: int

    @cached_property
    def _hash(self) -> int:
        return hash((self.role, self.group, self.index))

    @cached_property
    def _name(self) -> str:
        return f"{self.role}{self.group}:{self.index}"

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self._name


@dataclass(frozen=True)
class ClientId:
    index: int

    @cached_property
    def _hash(self) -> int:
        return hash((self.index,))

    @cached_property
    def _name(self) -> str:
        return f"c{self.index}"

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self._name


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
