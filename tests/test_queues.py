"""Queue behavior against an independent reference model.

``reference_enqueue`` replays the published replacement rules literally on a
plain list: retrieve (remove) the last stored message, inspect it, reinsert.
The production queue implements the same decision as peek-and-replace; the
two must agree everywhere. ``reference_keyed`` does the same for the keyed
variant: scan the list for a stored same-sender status, remove it, append.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqsim.messages import Message, MessageKind
from uqsim.queues import EnqueueOutcome, UpdatableQueue

LETTERS = {"S": MessageKind.STATUS, "C": MessageKind.COMMAND, "E": MessageKind.EVENT}


def reference_enqueue(items: list, msg: Message) -> None:
    if msg.kind is not MessageKind.STATUS:
        items.append(msg)
        return
    if not items:
        items.append(msg)
        return
    retrieved = items.pop()
    if retrieved.kind is not MessageKind.STATUS:
        items.append(retrieved)
        items.append(msg)
    elif retrieved.sender != msg.sender:
        items.append(retrieved)
        items.append(msg)
    else:
        items.append(msg)  # retrieved message is obsolete; drop it


def reference_keyed(items: list, msg: Message) -> EnqueueOutcome:
    """Keyed rule, literally: remove a stored same-sender status, then append."""
    outcome = EnqueueOutcome.INSERTED
    if msg.kind is MessageKind.STATUS:
        for i, old in enumerate(items):
            if old.kind is MessageKind.STATUS and old.sender == msg.sender:
                del items[i]
                outcome = EnqueueOutcome.REPLACED_TAIL
                break
    items.append(msg)
    return outcome


def ids(messages) -> list:
    return [(m.sender, m.kind, m.seq) for m in messages]


def conserved(q: UpdatableQueue) -> bool:
    return q.inserted == q.replaced + len(q) + q.dequeued


# -- coalescing insertion -----------------------------------------------------


def test_same_sender_status_replaces_tail(make_msg):
    q = UpdatableQueue()
    q.enqueue_uqa(make_msg(sender=1, kind="S", seq=5))
    new = make_msg(sender=1, kind="S", seq=9)
    outcome = q.enqueue_uqa(new)
    assert outcome is EnqueueOutcome.REPLACED_TAIL
    assert len(q) == 1
    assert q.snapshot()[-1] is new
    assert q.replaced == 1


def test_empty_queue_appends_command(make_msg):
    q = UpdatableQueue()
    msg = make_msg(sender=1, kind="C")
    assert q.enqueue_uqa(msg) is EnqueueOutcome.INSERTED
    assert ids(q.snapshot()) == ids([msg])


def test_empty_queue_appends_status(make_msg):
    q = UpdatableQueue()
    assert q.enqueue_uqa(make_msg(sender=1, kind="S")) is EnqueueOutcome.INSERTED
    assert len(q) == 1


def test_different_sender_status_appends(make_msg):
    q = UpdatableQueue()
    q.enqueue_uqa(make_msg(sender=1, kind="S", seq=5))
    outcome = q.enqueue_uqa(make_msg(sender=2, kind="S", seq=1))
    assert outcome is EnqueueOutcome.INSERTED
    assert len(q) == 2


def test_status_after_command_appends(make_msg):
    q = UpdatableQueue()
    q.enqueue_uqa(make_msg(sender=1, kind="C"))
    assert q.enqueue_uqa(make_msg(sender=1, kind="S")) is EnqueueOutcome.INSERTED
    assert len(q) == 2


def test_interleaved_statuses_not_coalesced(make_msg):
    # The check is tail-only: status A, command B, status A keeps all three.
    q = UpdatableQueue()
    q.enqueue_uqa(make_msg(sender=1, kind="S"))
    q.enqueue_uqa(make_msg(sender=2, kind="C"))
    q.enqueue_uqa(make_msg(sender=1, kind="S"))
    assert len(q) == 3


def test_random_trace_matches_reference(make_msg):
    rng = random.Random(4242)
    q = UpdatableQueue()
    reference: list = []
    for _ in range(1000):
        sender = rng.randrange(3)
        kind = rng.choice("SSSSSSSCCE")  # status-heavy mix
        msg = make_msg(sender=sender, kind=kind)
        shadow = Message(
            seq=msg.seq, sender=msg.sender, kind=msg.kind, size_bytes=msg.size_bytes
        )
        q.enqueue_uqa(msg)
        reference_enqueue(reference, shadow)
        assert conserved(q)
    assert ids(q.snapshot()) == ids(reference)


def test_stamp_rejects_double_enqueue(make_msg):
    q = UpdatableQueue()
    msg = make_msg()
    q.enqueue_uqa(msg, now=1.0)
    with pytest.raises(ValueError, match="already enqueued"):
        q.enqueue_uqa(msg, now=2.0)


# -- FIFO baseline -------------------------------------------------------------


def test_fifo_appends_on_empty(make_msg):
    q = UpdatableQueue()
    msg = make_msg(sender=0, kind="S")
    assert q.enqueue_fifo(msg) is EnqueueOutcome.INSERTED
    assert ids(q.snapshot()) == ids([msg])


def test_fifo_never_coalesces(make_msg):
    q = UpdatableQueue()
    q.enqueue_fifo(make_msg(sender=0, kind="S", seq=1))
    q.enqueue_fifo(make_msg(sender=0, kind="S", seq=2))
    assert len(q) == 2
    assert q.replaced == 0


def test_fifo_conservation_over_trace(make_msg):
    rng = random.Random(7)
    q = UpdatableQueue()
    dequeues = 0
    for _ in range(1000):
        q.enqueue_fifo(make_msg(sender=rng.randrange(3), kind=rng.choice("SCE")))
        if rng.random() < 0.3 and q.dequeue() is not None:
            dequeues += 1
    assert len(q) == 1000 - dequeues


# -- dequeue -------------------------------------------------------------------


def test_dequeue_returns_head(make_msg):
    q = UpdatableQueue()
    first = make_msg(sender=1, kind="C")
    second = make_msg(sender=2, kind="S")
    q.enqueue_uqa(first)
    q.enqueue_uqa(second)
    assert q.dequeue() is first
    assert ids(q.snapshot()) == ids([second])


def test_dequeue_empty_returns_none():
    assert UpdatableQueue().dequeue() is None


def test_single_status_round_trip(make_msg):
    q = UpdatableQueue()
    msg = make_msg(kind="S")
    q.enqueue_uqa(msg, now=1.5)
    assert q.dequeue(now=2.5) is msg
    assert msg.t_enqueued == 1.5
    assert msg.t_dequeued == 2.5


def test_replaced_message_never_gets_dequeue_stamp(make_msg):
    q = UpdatableQueue()
    old = make_msg(sender=1, kind="S")
    q.enqueue_uqa(old, now=1.0)
    q.enqueue_uqa(make_msg(sender=1, kind="S"), now=2.0)
    q.dequeue(now=3.0)
    assert old.t_dequeued is None


# -- keyed variant -------------------------------------------------------------


def test_keyed_replaces_anywhere(make_msg):
    q = UpdatableQueue()
    q.enqueue_keyed(make_msg(sender=1, kind="S", seq=1))
    cmd = make_msg(sender=2, kind="C", seq=2)
    q.enqueue_keyed(cmd)
    new = make_msg(sender=1, kind="S", seq=3)
    outcome = q.enqueue_keyed(new)
    assert outcome is EnqueueOutcome.REPLACED_TAIL
    assert ids(q.snapshot()) == ids([cmd, new])


def test_keyed_appends_when_no_match(make_msg):
    q = UpdatableQueue()
    q.enqueue_keyed(make_msg(sender=2, kind="C"))
    assert q.enqueue_keyed(make_msg(sender=1, kind="S")) is EnqueueOutcome.INSERTED
    assert len(q) == 2


def test_keyed_trace_keeps_one_status_per_sender(make_msg):
    rng = random.Random(99)
    q = UpdatableQueue()
    for _ in range(1000):
        q.enqueue_keyed(make_msg(sender=rng.randrange(4), kind=rng.choice("SSSC")))
        assert conserved(q)
    statuses: dict[int, int] = {}
    for m in q.snapshot():
        if m.kind is MessageKind.STATUS:
            statuses[m.sender] = statuses.get(m.sender, 0) + 1
    assert all(count == 1 for count in statuses.values())


def test_keyed_single_sender_flood_stays_compact(make_msg):
    q = UpdatableQueue()
    for _ in range(10_000):
        newest = make_msg(sender=3, kind="S")
        q.enqueue_keyed(newest)
        assert len(q._messages) <= 2 * len(q) + 1
    assert len(q) == 1
    assert q.replaced == 9_999
    assert q.dequeue() is newest
    assert not q


# -- properties ----------------------------------------------------------------

op_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("enq"),
            st.integers(min_value=0, max_value=3),
            st.sampled_from("SSSCE"),
        ),
        st.tuples(st.just("deq")),
    ),
    max_size=200,
)


def apply_ops(q: UpdatableQueue, ops, enqueue_name: str, check=None):
    seq = 0
    for op in ops:
        if op[0] == "enq":
            seq += 1
            msg = Message(seq=seq, sender=op[1], kind=LETTERS[op[2]], size_bytes=8)
            getattr(q, enqueue_name)(msg)
        else:
            q.dequeue()
        if check is not None:
            check(q)


def no_adjacent_same_sender_status(q: UpdatableQueue) -> bool:
    items = q.snapshot()
    for left, right in zip(items, items[1:]):
        if (
            left.kind is MessageKind.STATUS
            and right.kind is MessageKind.STATUS
            and left.sender == right.sender
        ):
            return False
    return True


@settings(max_examples=150)
@given(op_strategy)
def test_adjacency_invariant_holds(ops):
    q = UpdatableQueue()
    apply_ops(q, ops, "enqueue_uqa", check=lambda q: (
        no_adjacent_same_sender_status(q) or pytest.fail("adjacent same-sender statuses")
    ))


@settings(max_examples=150)
@given(op_strategy)
def test_conservation_counters(ops):
    q = UpdatableQueue()
    apply_ops(q, ops, "enqueue_uqa", check=lambda q: conserved(q) or pytest.fail("counters"))


@settings(max_examples=150)
@given(op_strategy)
def test_uqa_never_longer_than_fifo(ops):
    """Identical arrivals and dequeue schedule: coalescing can only shorten."""
    uqa = UpdatableQueue()
    fifo = UpdatableQueue()
    seq = 0
    for op in ops:
        if op[0] == "enq":
            seq += 1
            kind = LETTERS[op[2]]
            uqa.enqueue_uqa(Message(seq=seq, sender=op[1], kind=kind, size_bytes=8))
            fifo.enqueue_fifo(Message(seq=seq, sender=op[1], kind=kind, size_bytes=8))
        else:
            uqa.dequeue()
            fifo.dequeue()
        assert len(uqa) <= len(fifo)


@settings(max_examples=150)
@given(op_strategy)
def test_command_event_multiset_preserved(ops):
    """Full drain returns exactly the non-status messages that went in."""
    q = UpdatableQueue()
    sent = []
    seq = 0
    for op in ops:
        if op[0] == "enq":
            seq += 1
            msg = Message(seq=seq, sender=op[1], kind=LETTERS[op[2]], size_bytes=8)
            q.enqueue_uqa(msg)
            if msg.kind is not MessageKind.STATUS:
                sent.append((msg.sender, msg.seq))
    drained = []
    while (msg := q.dequeue()) is not None:
        if msg.kind is not MessageKind.STATUS:
            drained.append((msg.sender, msg.seq))
    assert sorted(drained) == sorted(sent)


@settings(max_examples=150)
@given(op_strategy)
def test_dequeue_order_is_arrival_order(ops):
    q = UpdatableQueue()
    seq = 0
    drained_seqs = []
    for op in ops:
        if op[0] == "enq":
            seq += 1
            q.enqueue_uqa(Message(seq=seq, sender=op[1], kind=LETTERS[op[2]], size_bytes=8))
        else:
            msg = q.dequeue()
            if msg is not None:
                drained_seqs.append(msg.seq)
    while (msg := q.dequeue()) is not None:
        drained_seqs.append(msg.seq)
    assert drained_seqs == sorted(drained_seqs)


@settings(max_examples=150)
@given(op_strategy)
def test_uqa_matches_reference_model(ops):
    q = UpdatableQueue()
    reference: list = []
    seq = 0
    for op in ops:
        if op[0] == "enq":
            seq += 1
            kind = LETTERS[op[2]]
            q.enqueue_uqa(Message(seq=seq, sender=op[1], kind=kind, size_bytes=8))
            reference_enqueue(
                reference, Message(seq=seq, sender=op[1], kind=kind, size_bytes=8)
            )
        else:
            q.dequeue()
            if reference:
                reference.pop(0)
        assert ids(q.snapshot()) == ids(reference)


@settings(max_examples=150)
@given(op_strategy)
def test_keyed_at_most_one_status_per_sender(ops):
    q = UpdatableQueue()
    apply_ops(q, ops, "enqueue_keyed")
    seen = set()
    for m in q.snapshot():
        if m.kind is MessageKind.STATUS:
            assert m.sender not in seen
            seen.add(m.sender)


@settings(max_examples=150)
@given(op_strategy)
def test_keyed_matches_reference_model(ops):
    q = UpdatableQueue()
    reference: list = []
    created = []
    dequeued = []
    for step, op in enumerate(ops):
        now = float(step)
        if op[0] == "enq":
            msg = Message(seq=step, sender=op[1], kind=LETTERS[op[2]], size_bytes=8)
            created.append(msg)
            assert q.enqueue_keyed(msg, now) is reference_keyed(reference, msg)
        else:
            msg = q.dequeue(now)
            assert msg is (reference.pop(0) if reference else None)
            if msg is not None:
                assert msg.t_dequeued == now
                dequeued.append(msg)
        contents = q.snapshot()
        assert len(contents) == len(reference)
        assert all(got is want for got, want in zip(contents, reference))
        assert len(q) == len(reference)
        assert bool(q) == bool(reference)
        assert (contents[-1] if contents else None) is (reference[-1] if reference else None)
        assert conserved(q)
    assert q.dequeued == len(dequeued)
    dequeued_ids = {id(m) for m in dequeued}
    assert all(m.t_dequeued is None for m in created if id(m) not in dequeued_ids)
