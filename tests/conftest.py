from contextlib import contextmanager

import pytest

from uqsim import harness
from uqsim.messages import Message, MessageKind

LETTER_KIND = {
    "S": MessageKind.STATUS,
    "C": MessageKind.COMMAND,
    "E": MessageKind.EVENT,
}


@pytest.fixture()
def make_msg():
    """Message factory with automatic per-sender seq numbering."""
    counters: dict[int, int] = {}

    def _make(sender=0, kind="S", size=64, seq=None):
        if seq is None:
            seq = counters.get(sender, 0) + 1
        counters[sender] = seq
        k = LETTER_KIND[kind] if isinstance(kind, str) else kind
        return Message(seq=seq, sender=sender, kind=k, size_bytes=size)

    return _make


@contextmanager
def sweep_axes(packet_sizes, receiver_delays):
    """Within the block, the sweep matrix crosses these sizes and delays: a
    test-sized stand-in for the default axes, which every sweep reads."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "DEFAULT_PACKET_SIZES", packet_sizes)
        mp.setattr(harness, "DEFAULT_RECEIVER_DELAYS", receiver_delays)
        yield
