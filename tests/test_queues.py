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


def contents(q: UpdatableQueue) -> list:
    """The messages of the queue's ``(t_enqueued, msg)`` records, head first."""
    return [msg for _, msg in q.snapshot()]


def dequeue_msg(q: UpdatableQueue):
    """The message of the head record ``dequeue`` returns, or None when empty."""
    record = q.dequeue()
    return None if record is None else record[1]


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
    assert contents(q)[-1] is new
    assert q.replaced == 1


def test_empty_queue_appends_command(make_msg):
    q = UpdatableQueue()
    msg = make_msg(sender=1, kind="C")
    assert q.enqueue_uqa(msg) is EnqueueOutcome.INSERTED
    assert ids(contents(q)) == ids([msg])


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
    assert ids(contents(q)) == ids(reference)


# -- FIFO baseline -------------------------------------------------------------


def test_fifo_appends_on_empty(make_msg):
    q = UpdatableQueue()
    msg = make_msg(sender=0, kind="S")
    assert q.enqueue_fifo(msg) is EnqueueOutcome.INSERTED
    assert ids(contents(q)) == ids([msg])


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
        if rng.random() < 0.3 and dequeue_msg(q) is not None:
            dequeues += 1
    assert len(q) == 1000 - dequeues


# -- dequeue -------------------------------------------------------------------


def test_dequeue_returns_head(make_msg):
    q = UpdatableQueue()
    first = make_msg(sender=1, kind="C")
    second = make_msg(sender=2, kind="S")
    q.enqueue_uqa(first)
    q.enqueue_uqa(second)
    assert dequeue_msg(q) is first
    assert ids(contents(q)) == ids([second])


def test_dequeue_empty_returns_none():
    assert UpdatableQueue().dequeue() is None


def test_single_status_round_trip(make_msg):
    q = UpdatableQueue()
    msg = make_msg(kind="S")
    q.enqueue_uqa(msg, now=1.5)
    t_enqueued, got = q.dequeue()
    assert got is msg
    assert t_enqueued == 1.5


def test_replaced_message_is_never_dequeued(make_msg):
    q = UpdatableQueue()
    old, new = make_msg(sender=1, kind="S"), make_msg(sender=1, kind="S")
    q.enqueue_uqa(old, now=1.0)
    q.enqueue_uqa(new, now=2.0)
    assert dequeue_msg(q) is new
    assert q.dequeue() is None


@pytest.mark.parametrize("policy", ["fifo", "uqa", "keyed"])
def test_records_carry_each_entrys_enqueue_time(make_msg, policy):
    # A replacing status stores its own time; the replaced one's time goes with it.
    q = UpdatableQueue()
    enqueue = getattr(q, f"enqueue_{policy}")
    a1, b, a2, a3 = (make_msg(sender=s, kind=k) for s, k in [(1, "S"), (2, "C"), (1, "S"), (1, "S")])
    for now, msg in enumerate([a1, b, a2, a3], start=1):
        enqueue(msg, float(now))
    expected = {
        "fifo": [(1.0, a1), (2.0, b), (3.0, a2), (4.0, a3)],
        "uqa": [(1.0, a1), (2.0, b), (4.0, a3)],  # tail-only: a3 replaces a2
        "keyed": [(2.0, b), (4.0, a3)],  # a2 replaces a1, then a3 replaces a2
    }[policy]
    snapshot = list(q.snapshot())
    assert [(t, id(m)) for t, m in snapshot] == [(t, id(m)) for t, m in expected]
    drained = []
    while (record := q.dequeue()) is not None:
        drained.append(record)
    assert [(t, id(m)) for t, m in drained] == [(t, id(m)) for t, m in expected]
    # The queue hands out the records it stores; dequeue builds none.
    assert all(got is seen for got, seen in zip(drained, snapshot, strict=True))


# -- keyed variant -------------------------------------------------------------


def test_keyed_replaces_anywhere(make_msg):
    q = UpdatableQueue()
    q.enqueue_keyed(make_msg(sender=1, kind="S", seq=1))
    cmd = make_msg(sender=2, kind="C", seq=2)
    q.enqueue_keyed(cmd)
    new = make_msg(sender=1, kind="S", seq=3)
    outcome = q.enqueue_keyed(new)
    assert outcome is EnqueueOutcome.REPLACED_TAIL
    assert ids(contents(q)) == ids([cmd, new])


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
    for m in contents(q):
        if m.kind is MessageKind.STATUS:
            statuses[m.sender] = statuses.get(m.sender, 0) + 1
    assert all(count == 1 for count in statuses.values())


def test_keyed_single_sender_flood_stays_compact(make_msg):
    q = UpdatableQueue()
    for _ in range(10_000):
        newest = make_msg(sender=3, kind="S")
        q.enqueue_keyed(newest)
        assert len(q._keyed) == len(q)
    assert len(q) == 1
    assert q.replaced == 9_999
    assert dequeue_msg(q) is newest
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
    items = contents(q)
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
    while (msg := dequeue_msg(q)) is not None:
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
            msg = dequeue_msg(q)
            if msg is not None:
                drained_seqs.append(msg.seq)
    while (msg := dequeue_msg(q)) is not None:
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
        assert ids(contents(q)) == ids(reference)


@settings(max_examples=150)
@given(op_strategy)
def test_keyed_at_most_one_status_per_sender(ops):
    q = UpdatableQueue()
    apply_ops(q, ops, "enqueue_keyed")
    seen = set()
    for m in contents(q):
        if m.kind is MessageKind.STATUS:
            assert m.sender not in seen
            seen.add(m.sender)


@settings(max_examples=150)
@given(op_strategy)
def test_keyed_matches_reference_model(ops):
    q = UpdatableQueue()
    reference: list = []
    dequeued = []
    for step, op in enumerate(ops):
        if op[0] == "enq":
            msg = Message(seq=step, sender=op[1], kind=LETTERS[op[2]], size_bytes=8)
            assert q.enqueue_keyed(msg, float(step)) is reference_keyed(reference, msg)
        else:
            msg = dequeue_msg(q)
            assert msg is (reference.pop(0) if reference else None)
            if msg is not None:
                dequeued.append(msg)
        stored = contents(q)
        assert len(stored) == len(reference)
        assert all(got is want for got, want in zip(stored, reference))
        assert all(t == m.seq for t, m in q.snapshot())  # each enqueued at float(seq)
        assert len(q) == len(reference)
        assert bool(q) == bool(reference)
        assert (stored[-1] if stored else None) is (reference[-1] if reference else None)
        assert conserved(q)
    assert q.dequeued == len(dequeued)
    # No message, superseded or not, comes out twice.
    assert len({id(m) for m in dequeued}) == len(dequeued)


# Three senders, mostly statuses and one dequeue per four enqueues: keyed
# insertions replace a stored status in most drawn sequences.
live_length_ops = st.lists(
    st.tuples(
        st.sampled_from(["enq"] * 4 + ["deq"]),
        st.integers(min_value=0, max_value=2),
        st.sampled_from("SSSSSCE"),
    ),
    min_size=10,
    max_size=300,
)


@pytest.mark.parametrize("policy", ["fifo", "uqa", "keyed"])
@settings(max_examples=150, derandomize=True, database=None)
@given(ops=live_length_ops)
def test_live_length_matches_contents_after_every_operation(policy, ops):
    def check(q):
        assert len(q) == q.length == len(list(q.snapshot()))
        # Each policy stores exactly its live records, in one of the stores.
        assert len(q._records) + len(q._keyed) == q.length
        assert q.inserted == q.replaced + len(q) + q.dequeued

    apply_ops(UpdatableQueue(), ops, f"enqueue_{policy}", check=check)
