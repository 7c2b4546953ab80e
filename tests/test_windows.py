from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geobft.core.quorum import backed_position
from geobft.irmc import (
    BLOCKED,
    DROP,
    TRANSMIT,
    SubchannelWindow,
    TooOld,
    classify_receive,
    classify_send,
)

# Senders and receivers slide their windows by one rule, backed_position:
# the (f+1)-highest move, once f+1 peers asked, never below the current start.


class TestSenderWindowRule:
    def test_second_highest_of_three(self):
        assert backed_position({"R1": 7, "R2": 5, "R3": 3}, 1, 1) == 5

    def test_quorum_not_met(self):
        assert backed_position({"R1": 100}, 1, 1) == 1

    def test_monotonicity_dominates(self):
        assert backed_position({"R1": 10, "R2": 10, "R3": 10}, 1, 12) == 12


class TestReceiverWindowRule:
    def test_second_largest(self):
        assert backed_position({"S1": 9, "S2": 9, "S3": 4}, 1, 1) == 9

    def test_quorum_not_met(self):
        assert backed_position({"S1": 9}, 1, 1) == 1

    def test_four_senders(self):
        req = {"S1": 3, "S2": 5, "S3": 8, "S4": 8}
        assert backed_position(req, 1, 6) == 8


@settings(derandomize=True, max_examples=300, deadline=None)
@given(asks=st.dictionaries(st.integers(0, 6), st.integers(0, 40), max_size=7),
       f=st.integers(0, 3), current=st.integers(0, 40), who=st.integers(0, 7),
       data=st.data())
def test_ask_at_or_below_current_never_moves_the_window(asks, f, current, who, data):
    """Adding an ask at or below current, or raising one to such a value,
    leaves the rule's result as it was. A sender may therefore skip a
    move to a receiver whose own moves (and so its window) reached it."""
    lo = asks.get(who, -1) + 1
    assume(lo <= current)
    x = data.draw(st.integers(lo, current))
    assert backed_position({**asks, who: x}, f, current) == \
        backed_position(asks, f, current)


class TestClassify:
    def test_send_blocked(self):
        assert classify_send(11, SubchannelWindow(1, 10)) == BLOCKED

    def test_send_drop(self):
        assert classify_send(3, SubchannelWindow(5, 10)) == DROP

    def test_send_transmit(self):
        assert classify_send(5, SubchannelWindow(5, 10)) == TRANSMIT

    def test_receive_too_old_carries_start(self):
        assert classify_receive(3, SubchannelWindow(5, 10)) == TooOld(5)

    def test_receive_in_window_waits(self):
        assert classify_receive(5, SubchannelWindow(5, 10)) is None

    def test_receive_after_window_waits(self):
        # positions after the window are legal to request
        assert classify_receive(20, SubchannelWindow(5, 10)) is None
