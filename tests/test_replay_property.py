"""Trace files at the edges of the record format through ``uqsim replay``:
each is rejected with one ``error:`` line and no output, or it replays every
record and the printed counters balance. Times come from a small pool, so
files repeat and reorder send times; fields reach the size ceiling and
senders far beyond 64 bits."""

import contextlib
import io
import math
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uqsim import cli
from uqsim.messages import MAX_SIZE_BYTES

HUGE = "99999999999999999999999"
# Per field of t_send,sender_id,seq,kind,size_bytes: ordinary values, values
# at the edges that a record may still hold, and values that reject it.
FIELDS = (
    (("0", "0.5", "1", "1", "2.25", "3"), ("-0.0", "1e-9", "5e-324", "1e300", "1.7976931348623157e+308"),
     ("-1", "nan", "inf", "1e400", "", "x")),
    (("0", "1", "2", "2"), (HUGE,), ("-1", "1.5", "", "s")),
    (("0", "1", "7"), ("-3", HUGE), ("x", "")),
    (("S", "S", "S", "C", "E"), (), ("X", "s", "")),
    (("1", "64", "64"), (str(MAX_SIZE_BYTES),), ("0", "-1", str(MAX_SIZE_BYTES + 1), "1e3", HUGE)),
)
MALFORMED = ("1,2,3", "0,1,1,S,8,9", "0,1,1,S,8,", '"0,1,1,S,8"', "0;1;1;S;8", "\x00")
DELAYS = ("0", "1e-3", "0.5", "1e300", "5e-324", "nan", "inf", "-1")


@st.composite
def trace_files(draw):
    """(file bytes, record count, whether the file must be rejected). Half
    the files draw edge values too, and a third carry one bad line."""
    edgy = draw(st.booleans())
    pools = [ordinary + edges if edgy else ordinary for ordinary, edges, _ in FIELDS]
    lines = [",".join(draw(st.sampled_from(pool)) for pool in pools) for _ in range(draw(st.integers(0, 25)))]
    records = len(lines)
    lines += [""] * draw(st.integers(0, 2))  # blank lines are skipped
    bad = draw(st.integers(0, 2)) == 0
    if bad:
        fields = [draw(st.sampled_from(pool)) for pool in pools]
        where = draw(st.integers(-1, len(FIELDS) - 1))
        if where < 0:
            line = draw(st.sampled_from(MALFORMED))
        else:
            fields[where] = draw(st.sampled_from(FIELDS[where][2]))
            line = ",".join(fields)
        lines.append(line)
    order = draw(st.permutations(range(len(lines))))
    data = "".join(lines[i] + "\n" for i in order).encode("utf-8")
    return data, records, bad


def run_replay(data, variant, delay):
    """``uqsim replay`` on the file: (status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        argv = ["replay", "--trace", path, "--queue-variant", variant]
        if delay is not None:
            argv.append(f"--receiver-delay={delay}")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("delayed", [False, True])
@pytest.mark.parametrize("variant", ["fifo", "uqa", "keyed"])
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(trace=trace_files(), delay=st.sampled_from(DELAYS))
@example(trace=(b"0,1,1,S,8\n\xff\xfe\n", 1, True), delay="0.5")  # not UTF-8
@example(  # a sender id far beyond 64 bits, its status replaced out of order
    trace=(f"1,{HUGE},2,S,8\n0.5,{HUGE},1,C,8\n0.5,{HUGE},1,S,8\n".encode(), 3, False), delay="0.5"
)
@example(trace=(b"5e-324,1,1,S,8\n", 1, False), delay="0")  # lambda overflows on a denormal horizon
def test_replay_rejects_a_trace_cleanly_or_balances(variant, delayed, trace, delay):
    data, records, bad = trace
    rc, out, err = run_replay(data, variant, delay if delayed else None)
    if bad or rc != 0:
        lines = err.splitlines()
        assert rc == 1 and out == "", (rc, out, err)
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        return
    assert err == ""
    lines = out.splitlines()
    queued = int(lines[0].removeprefix("final_queue_length: "))
    assert all(line.count(",") == 4 for line in lines[1 : 1 + queued])
    counters = dict(line.split(": ") for line in lines[1 + queued :])
    inserted, replaced, dequeued = (int(counters[k]) for k in ("inserted", "replaced", "dequeued"))
    assert inserted == records
    assert inserted == replaced + queued + dequeued
    if not delayed:
        assert dequeued == 0  # without a consumer the queue only fills
    assert float(counters["avg_queue_len"]) <= int(counters["peak_queue_len"])
    metrics = ("avg_queue_len", "peak_queue_len", "avg_time_in_queue_s", "littles_residual")
    assert all(math.isfinite(float(counters[k])) for k in metrics), counters
