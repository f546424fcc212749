import pytest

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
