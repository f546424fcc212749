"""Per-run measurement: throughputs, queue statistics, message accounting.

Definitions, chosen to make the four transports comparable:

* ``avg_client_throughput_bps`` - data bits the source put on the wire
  (first transmissions only) divided by the time the source spent on
  communication work: serializing data packets (retransmissions included),
  handling incoming acknowledgements, and updating its transport send queue
  where that transport keeps one. This is a work-rate, not bits over wall
  clock: every protocol sends the same bits in the same run, so dividing by
  run duration would erase the overhead differences the experiments are
  about.

* ``avg_server_throughput_bps`` - the receiving side's processed load:
  (data bits enqueued + acknowledgement bits generated) / run duration.
  Higher means the receiver was forced to do more protocol work for the
  same traffic; comparisons rank lower as better.

* ``avg_queue_len`` - time-weighted mean of the instantaneous queue length,
  integrated exactly by the receiver on every enqueue and dequeue (no grid).

* ``avg_time_in_queue_s`` - mean of (dequeue time - the queue's enqueue time)
  over delivered messages only. Replaced (coalesced) messages were never
  delivered and are excluded; they still appear in ``messages_replaced``.

``conservation_residual()`` counts the messages still in transport at run
end (in TCP's ``unacked`` queue or reorder buffer, or datagrams on the
wire); it is 0 whenever the run drains, as in every default sweep cell.

Zero-duration or zero-traffic runs report zeros rather than NaNs.
"""

from __future__ import annotations

from math import isfinite, isinf
from typing import NamedTuple

from .queues import UpdatableQueue

LITTLES_EPSILON = 1e-12


def check_horizon(horizon_s: float, messages: int, name: str) -> None:
    """Reject a horizon whose queue statistics could overflow a float.

    The length integral and the summed wait of one queue are each at most
    messages * horizon; past the largest float they become inf or NaN.
    ``name`` is the input the error blames.
    """
    if not isfinite(horizon_s * max(messages, 1)):
        raise ValueError(
            f"{name} is too large for {messages} messages: "
            "the horizon times the message count overflows a float"
        )


class MetricsReport(NamedTuple):
    """One destination's measurements, or a mean of them: a tuple, so no field is written."""

    # The results CSV's metric columns, in column order: every field before
    # run_duration_s (see harness.METRIC_COLUMNS).
    messages_sent: float
    messages_delivered: float
    messages_replaced: float
    messages_lost: float
    acks_generated: float
    avg_client_throughput_bps: float
    avg_server_throughput_bps: float
    avg_queue_len: float
    peak_queue_len: float
    avg_time_in_queue_s: float
    run_duration_s: float
    # Secondary counters, not part of the results CSV.
    delivered_to_queue: float = 0.0
    final_queue_len: float = 0.0
    retransmissions: float = 0.0

    def conservation_residual(self) -> float:
        """sent - (delivered + replaced + lost + final queue): messages in transport."""
        return self.messages_sent - (
            self.messages_delivered
            + self.messages_replaced
            + self.messages_lost
            + self.final_queue_len
        )


def littles_law_residual(report: MetricsReport) -> float:
    """Relative gap between L and lambda * W; a consistency check, not a metric.

    lambda is the delivered-message rate, ``messages_delivered /
    run_duration_s`` (0 for a zero-duration run), and W the delivered-only
    waiting time, so it is meaningful for FIFO runs (no coalescing) and
    informational otherwise. Where lambda overflows (a denormal duration),
    lambda * W is formed as delivered * W / duration instead.
    """
    duration, wait = report.run_duration_s, report.avg_time_in_queue_s
    rate = report.messages_delivered / duration if duration > 0 else 0.0
    expected = rate * wait if isfinite(rate) else report.messages_delivered * wait / duration
    return abs(report.avg_queue_len - expected) / max(report.avg_queue_len, LITTLES_EPSILON)


class MetricsCollector:
    """One destination's measurements that no other object keeps.

    The receive queue keeps the receive-side counts, which ``finalize``
    reads, and the transport its in-flight state. The collector keeps the
    source side, bits, summed wait and length integral; the senders and the
    receiver add to them directly. A reliable transport sets ``ack_size_bytes``
    (0 means no acks) and acks every dequeue, so its acks are ``queue.dequeued``.
    There is no sampler: the receiver (``engine.Receiver``) writes
    ``len_integral``, the integral of queue length over time from t = 0 to
    ``last_sample_t``, and ``peak_len`` where the length changes;
    ``finalize`` closes the integral at the run's end.
    """

    def __init__(self) -> None:
        self.messages_sent = 0
        self.messages_lost = 0
        self.retransmissions = 0
        self.data_bits_sent = 0.0
        self.data_bits_enqueued = 0.0
        self.source_busy_s = 0.0
        self.wait_time_sum_s = 0.0
        self.len_integral = 0.0
        self.peak_len = 0
        self.last_sample_t = 0.0
        self.ack_size_bytes = 0  # 0: the transport sends no acks

    # -- finalize ----------------------------------------------------------

    def finalize(self, run_duration_s: float, queue: UpdatableQueue) -> MetricsReport:
        """The report at ``run_duration_s``; the receive-side counts come from ``queue``."""
        if run_duration_s < 0:
            raise ValueError(f"run_duration_s must be >= 0, got {run_duration_s}")
        # The clock fires nothing after the run's end, so last_sample_t <= run_duration_s.
        len_integral = self.len_integral + len(queue) * (run_duration_s - self.last_sample_t)
        avg_len = len_integral / run_duration_s if run_duration_s > 0 else 0.0
        avg_wait = self.wait_time_sum_s / queue.dequeued if queue.dequeued else 0.0
        acks = queue.dequeued if self.ack_size_bytes else 0  # one per reliable consumption
        client_bps = self.data_bits_sent / self.source_busy_s if self.source_busy_s > 0 else 0.0
        server_bps = (
            (self.data_bits_enqueued + acks * self.ack_size_bytes * 8.0) / run_duration_s
            if run_duration_s > 0
            else 0.0
        )
        return MetricsReport(
            avg_client_throughput_bps=client_bps,
            avg_server_throughput_bps=server_bps,
            avg_queue_len=avg_len,
            peak_queue_len=float(self.peak_len),
            avg_time_in_queue_s=avg_wait,
            messages_sent=float(self.messages_sent),
            messages_delivered=float(queue.dequeued),
            messages_replaced=float(queue.replaced),
            messages_lost=float(self.messages_lost),
            acks_generated=float(acks),
            run_duration_s=run_duration_s,
            delivered_to_queue=float(queue.inserted),
            final_queue_len=float(len(queue)),
            retransmissions=float(self.retransmissions),
        )


def mean(values: list[float]) -> float:
    """The one average of every report and table: the plain sum over the count,
    unless finite values sum past the largest float; then the exact mean."""
    total = sum(values)
    if isinf(total) and all(map(isfinite, values)):
        from fractions import Fraction  # exact, so rounded once; imported on this path only
        return float(sum(map(Fraction, values)) / len(values))
    return total / len(values)


def mean_report(reports: list[MetricsReport]) -> MetricsReport:
    """Field-wise mean across destinations of a fan-out run."""
    if not reports:
        raise ValueError("mean_report needs at least one report")
    return MetricsReport._make(mean(list(column)) for column in zip(*reports))
