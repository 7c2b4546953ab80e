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
