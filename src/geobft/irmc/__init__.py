from .base import (
    BLOCKED,
    DROP,
    TRANSMIT,
    ChannelConfig,
    Delivered,
    ReceiverEndpoint,
    SenderEndpoint,
    SubchannelWindow,
    TooOld,
    classify_receive,
    classify_send,
)
from .rc import RcReceiver, RcSender
from .sc import ScReceiver, ScSender

VARIANTS = {
    "rc": (RcSender, RcReceiver),
    "sc": (ScSender, ScReceiver),
}
