"""The quorum rules of core/quorum.py and the MiniBFT certificate paths that use them.

The six window-rule cases of backed_position are in test_windows.py.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geobft.core import CryptoProvider, ReplicaId
from geobft.core.messages import (
    ChCert,
    CpState,
    ObCommit,
    ObFetch,
    ObNewView,
    ObPrePrepare,
    ObSeqInfo,
    ObViewChange,
    PreparedProof,
    VcRecord,
)
from geobft.core.quorum import (
    backed_position,
    behind,
    certificate_signers,
    is_certificate,
    progress_row,
    show,
    tally,
)

from tests.conftest import Channel, NetSpy
from tests.test_checkpoint import build_group as build_cp_group
from tests.test_ordering import build_group, make_request

A, B, C, D = (ReplicaId("ag", 0, i) for i in range(4))
OUTSIDER = ReplicaId("ag", 0, 9)
MEMBERS = (A, B, C, D)
MSG = ObCommit(0, 1, b"d" * 32)
OTHER = ObCommit(0, 2, b"d" * 32)


def signed_by(provider, *signers):
    return [(MSG, provider.sign(who, MSG)) for who in signers]


def provider_with_outsider():
    provider = CryptoProvider()
    for nid in MEMBERS + (OUTSIDER,):
        provider.register_principal(nid)
    return provider


class TestCertificate:
    def test_distinct_valid_members_certify(self):
        provider = provider_with_outsider()
        signed = signed_by(provider, A, B, C)
        assert certificate_signers(signed, MEMBERS, 3, provider.valid_sig) == {A, B, C}

    def test_duplicate_signer_rejected_even_with_q_distinct(self):
        provider = provider_with_outsider()
        signed = signed_by(provider, A, B, A)
        assert certificate_signers(signed, MEMBERS, 2, provider.valid_sig) is None

    def test_signer_outside_members_rejected(self):
        provider = provider_with_outsider()
        signed = signed_by(provider, A, B, OUTSIDER)
        assert certificate_signers(signed, MEMBERS, 2, provider.valid_sig) is None

    def test_one_bad_signature_rejects_and_stops_verifying(self):
        provider = provider_with_outsider()
        signed = signed_by(provider, A, B)
        signed.append((MSG, provider.sign(C, OTHER)))  # C signed another message
        signed += signed_by(provider, D)
        checked = []

        def valid_sig(msg, sig):
            checked.append(sig.signer)
            return provider.valid_sig(msg, sig)

        assert certificate_signers(signed, MEMBERS, 2, valid_sig) is None
        assert checked == [A, B, C]

    def test_fewer_than_q_signers_rejected(self):
        provider = provider_with_outsider()
        signed = signed_by(provider, A, B)
        assert certificate_signers(signed, MEMBERS, 3, provider.valid_sig) is None
        assert certificate_signers(signed, MEMBERS, 2, provider.valid_sig) == {A, B}


class TestTally:
    def test_first_quorum_value_in_insertion_order(self):
        # "y" reaches two voters first while scanning, but "x" was held first
        votes = {"a": "x", "b": "y", "c": "y", "d": "x"}
        assert tally(votes, 2) == ("x", ["a", "d"])

    def test_voters_in_insertion_order(self):
        votes = {"r3": "v", "r1": "w", "r0": "v", "r2": "v"}
        assert tally(votes, 3) == ("v", ["r3", "r0", "r2"])

    def test_no_value_with_q_voters(self):
        assert tally({"a": 1, "b": 2, "c": 1}, 3) is None
        assert tally({}, 1) is None

    def test_key_selects_the_value(self):
        votes = {"a": (b"d1", "sig-a"), "b": (b"d2", "sig-b"), "c": (b"d1", "sig-c")}
        assert tally(votes, 2, key=lambda vote: vote[0]) == (b"d1", ["a", "c"])


# a peer order that is neither index nor name order
ROW_PEERS = (C, A, D, B)
NON_PEERS = (OUTSIDER, ReplicaId("ex", 1, 0))


class TestProgressRow:
    def test_row_holds_every_peer_at_zero_in_peer_order(self):
        row = progress_row(ROW_PEERS)
        assert list(row.items()) == [(C, 0), (A, 0), (D, 0), (B, 0)]

    def test_show_raises_only_upward(self):
        row = progress_row(ROW_PEERS)
        assert show(row, A, 5) is True
        assert row[A] == 5
        assert show(row, A, 5) is False  # an equal position is no rise
        assert show(row, A, 3) is False
        assert row[A] == 5
        assert show(row, A, 6) is True
        assert row[A] == 6

    def test_show_ignores_zero_and_non_peers(self):
        row = progress_row(ROW_PEERS)
        assert show(row, B, 0) is False
        assert show(row, OUTSIDER, 9) is False
        assert row == dict.fromkeys(ROW_PEERS, 0)

    def test_behind_keeps_peer_order(self):
        row = progress_row(ROW_PEERS)
        show(row, D, 4)
        assert behind(row, 4) == [C, A, B]
        assert behind(row, 5) == [C, A, D, B]
        assert behind(row, 0) == []


# Reference copies of the sparse tables that progress rows replaced: a
# handler dropped non-peers, a move or counter table recorded only a rise
# (stale or replayed otherwise), a claims table kept max(held, p), and a
# missing peer counted as 0.

def _sparse_record(held, peer, p):
    if peer not in ROW_PEERS or p <= held.get(peer, 0):
        return False
    held[peer] = p
    return True


def _sparse_claim(held, peer, p):
    if peer in ROW_PEERS:
        held[peer] = max(held.get(peer, 0), p)


def _sparse_behind(shown, p):
    return [r for r in ROW_PEERS if shown.get(r, 0) < p]


def _sparse_backed_position(asks, f, current):
    if len(asks) < f + 1:
        return current
    return max(current, sorted(asks.values(), reverse=True)[f])


@settings(derandomize=True, max_examples=200)
@given(st.lists(st.tuples(st.sampled_from(ROW_PEERS + NON_PEERS), st.integers(0, 6)),
                max_size=24),
       st.integers(0, 3), st.integers(0, 8), st.integers(0, 8))
def test_row_agrees_with_the_sparse_tables_it_replaced(shows, f, current, p):
    row = progress_row(ROW_PEERS)
    moves, claims = {}, {}
    for peer, q in shows:
        assert show(row, peer, q) == _sparse_record(moves, peer, q)
        _sparse_claim(claims, peer, q)
    assert behind(row, p) == _sparse_behind(moves, p) == _sparse_behind(claims, p)
    backed = backed_position(row, f, current)
    assert backed == _sparse_backed_position(moves, f, current)
    assert backed == _sparse_backed_position(claims, f, current)


def _seqinfo_host():
    sim, hosts, provider, client = build_group()
    host = hosts[0]
    provider.register_principal(OUTSIDER)
    batch = (make_request(provider, client, 1),)
    want = ObCommit(0, 1, host.ordering.node.crypto.digest(batch))
    return host, provider, batch, want


class TestSeqInfoCertificate:
    """A fetched sequence is delivered only with a 2f+1 commit certificate."""

    def _offer(self, signers):
        host, provider, batch, want = _seqinfo_host()
        sigs = tuple(provider.sign(who, want) for who in signers)
        host.ordering.handle(B, ObSeqInfo(0, 1, batch, sigs))
        return host, batch

    def test_valid_certificate_delivers(self):
        host, batch = self._offer((A, B, C))
        assert host.delivered == [(1, batch)]

    def test_short_certificate_not_delivered(self):
        host, _ = self._offer((A, B))
        assert host.delivered == []

    def test_duplicated_signer_not_delivered(self):
        host, _ = self._offer((A, B, C, A))
        assert host.delivered == []

    def test_outsider_signer_not_delivered(self):
        host, _ = self._offer((A, B, C, OUTSIDER))
        assert host.delivered == []

    def test_malformed_certificate_ignored(self):
        """commit_sigs that is not a tuple of Sig records is dropped without
        raising, and a well-formed copy still delivers afterwards."""
        host, provider, batch, want = _seqinfo_host()
        sigs = tuple(provider.sign(who, want) for who in (A, B, C))
        for bad in (((0,), sigs), sigs[0], sigs + (b"x",), None):
            host.ordering.handle(B, ObSeqInfo(0, 1, batch, bad))
        assert host.delivered == []
        host.ordering.handle(B, ObSeqInfo(0, 1, batch, sigs))
        assert host.delivered == [(1, batch)]


class TestNewViewAdoption:
    """A NewView is adopted only with 2f+1 distinct view changes and the
    deterministic re-proposal set."""

    def _offer(self, voters, proposals=()):
        sim, hosts, provider, client = build_group()
        host = hosts[0]
        vc = ObViewChange(1, 0, ())
        records = tuple(VcRecord(vc, provider.sign(who, vc)) for who in voters)
        leader = host.ordering.leader_of(1)
        host.ordering.handle(leader, ObNewView(1, records, proposals))
        return host

    def test_valid_new_view_adopted(self):
        assert self._offer((A, B, C)).ordering.view == 1

    def test_duplicated_view_change_signer_not_adopted(self):
        assert self._offer((A, B, C, B)).ordering.view == 0

    def test_deviating_proposal_set_not_adopted(self):
        assert self._offer((A, B, C), proposals=((1, ()),)).ordering.view == 0


class TestCertificateShape:
    """Each handler that reads a certificate out of a message asks
    is_certificate first, so a field of another shape, which the codec
    decodes as readily, is dropped without raising and changes nothing."""

    def test_only_a_tuple_of_sigs_is_a_certificate(self):
        sig = provider_with_outsider().sign(A, MSG)
        assert is_certificate(()) and is_certificate((sig, sig))
        for bad in ([sig], (sig, b"x"), (b"junk",), ((sig,),), 5, None):
            assert not is_certificate(bad)

    @pytest.mark.parametrize("cert", [(b"junk",), 5])
    def test_malformed_checkpoint_transfer_dropped(self, cert):
        _, hosts = build_cp_group()
        host = hosts[2]
        host.cp.on_state(hosts[1].nid, CpState("ex", 1, 10, b"ten", cert),
                         host.group_members_of)
        assert (host.stable_calls, host.cp.stable, host.cp.delivered_s) == ([], {}, 0)

    @pytest.mark.parametrize("shares", [(b"junk",), 5])
    def test_malformed_sc_certificate_dropped(self, shares):
        ch = Channel("sc")
        recv = ch.r_eps[0]
        got = []
        recv.receive(0, 1, got.append)
        known = set(recv._known_sc)
        recv.handle(ch.senders[0], ChCert(ch.cfg.channel, 0, 1, b"m", shares))
        assert (got, recv.delivered, recv._known_sc) == ([], {}, known)

    @pytest.mark.parametrize("fetch", [ObFetch(b"x", 3), ObFetch(1, b"x"), ObFetch(None, 3)])
    def test_malformed_fetch_dropped(self, fetch, net_spy):
        host, provider, batch, want = _seqinfo_host()
        sigs = tuple(provider.sign(who, want) for who in (A, B, C))
        host.ordering.handle(B, ObSeqInfo(0, 1, batch, sigs))
        assert host.delivered == [(1, batch)]  # a certificate to serve
        spy = net_spy(host.sim)
        host.ordering.handle(B, fetch)
        assert spy.sent == []
        host.ordering.handle(B, ObFetch(1, 3))
        assert NetSpy.payloads(spy.sent, "ObSeqInfo") == [ObSeqInfo(0, 1, batch, sigs)]

    def test_malformed_prepared_proof_is_invalid(self):
        host, provider, batch, _ = _seqinfo_host()
        pp_sig = provider.sign(A, ObPrePrepare(0, 1, batch))
        for pp, prepares in ((b"junk", ()), (None, ()), (pp_sig, 5), (pp_sig, (b"junk",))):
            assert not host.ordering._valid_proof(PreparedProof(0, 1, batch, pp, prepares))
