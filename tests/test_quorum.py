"""The quorum rules of core/quorum.py and the MiniBFT certificate paths that use them.

The six window-rule cases of backed_position are in test_windows.py.
"""
from geobft.core import CryptoProvider, ReplicaId
from geobft.core.messages import ObCommit, ObNewView, ObSeqInfo, ObViewChange, VcRecord
from geobft.core.quorum import certificate_signers, tally

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
        host.ordering.handle(B, ObSeqInfo(1, batch, ((0,), sigs)))
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
