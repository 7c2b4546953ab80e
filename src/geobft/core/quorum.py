"""The quorum rules every layer applies, each decided in one place.

- progress rows: the highest position each peer has shown, 0 until it
  shows more (progress_row, show), and the peers below a position (behind).
  IRMC moves, sc claims and sc Move counters use them.
- backed_position: the (f+1)-highest position f+1 principals asked for.
  Applied to a progress row, it slides IRMC windows (sender and receiver
  moves) and bounds sc Progress claims.
- tally: the first value that q distinct voters hold. Client replies and
  registry answers (f+1), checkpoint votes (f+1), rc copies and sc shares
  (f_s+1), and MiniBFT prepare and commit votes (2f+1) use it.
- certificate_signers: a certificate of q distinct valid member
  signatures. MiniBFT commit, prepare and view-change certificates,
  transferred checkpoints and sc certificates use it. A certificate read
  out of a message is a tuple of Sig records already: the message's field
  annotation says so, and codec.well_formed holds every received
  envelope to it.
"""
from __future__ import annotations

from typing import Callable, Iterable, Optional


def progress_row(peers) -> dict:
    """A progress row: every peer, in the given order, at position 0."""
    return dict.fromkeys(peers, 0)


def show(row: dict, peer, p: int) -> bool:
    """Raise peer's position in row to p. True only if it rose; a peer
    outside the row is ignored."""
    held = row.get(peer)
    if held is None or p <= held:
        return False
    row[peer] = p
    return True


def behind(row: dict, p: int) -> list:
    """The peers, in row order, whose position is below p."""
    return [peer for peer, held in row.items() if held < p]


def backed_position(asks: dict, f: int, current: int) -> int:
    """The (f+1)-highest position in asks (principal -> position), taken
    only once f+1 principals have asked; never below current. A progress
    row's silent peers hold 0, which never lifts it above a current >= 0."""
    if len(asks) < f + 1:
        return current
    return max(current, sorted(asks.values(), reverse=True)[f])


def tally(votes: dict, q: int, key: Optional[Callable] = None) -> Optional[tuple]:
    """(value, voters) for the first value, in insertion order, that q
    distinct voters hold, with those voters in insertion order; None if
    no value has q. votes maps voter -> vote, and key(vote) is its value."""
    voters_of: dict = {}
    for voter, vote in votes.items():
        value = vote if key is None else key(vote)
        held = voters_of.get(value)
        if held is None:
            voters_of[value] = [voter]
        else:
            held.append(voter)
    for value, voters in voters_of.items():
        if len(voters) >= q:
            return value, voters
    return None


def certificate_signers(signed: Iterable, members, q: int,
                        valid_sig: Callable) -> Optional[set]:
    """The signer set of a certificate given as (message, Sig) pairs, or
    None. Signers must be distinct members, each signature must verify on
    its message, and at least q must sign. Rejects at the first bad pair."""
    signers = set()
    for msg, sig in signed:
        if sig.signer in signers or sig.signer not in members:
            return None
        if not valid_sig(msg, sig):
            return None
        signers.add(sig.signer)
    return signers if len(signers) >= q else None
