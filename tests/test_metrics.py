import pytest

from uqsim.metrics import (
    MetricsCollector,
    MetricsReport,
    littles_law_residual,
    mean_report,
)


def test_constant_length_average():
    c = MetricsCollector()
    c.record_queue_sample(0.0, 5)
    report = c.finalize(10.0)
    assert report.avg_queue_len == 5.0
    assert report.peak_queue_len == 5


def test_step_function_average_and_peak():
    c = MetricsCollector()
    c.record_queue_sample(0.0, 0)
    c.record_queue_sample(5.0, 10)
    report = c.finalize(10.0)
    assert report.avg_queue_len == 5.0
    assert report.peak_queue_len == 10


def test_zero_duration_reports_zeros():
    report = MetricsCollector().finalize(0.0)
    assert report.avg_queue_len == 0.0
    assert report.avg_client_throughput_bps == 0.0
    assert report.avg_server_throughput_bps == 0.0
    assert report.avg_time_in_queue_s == 0.0


def test_zero_width_spike_contributes_nothing():
    c = MetricsCollector()
    c.record_queue_sample(1.0, 1)
    c.record_queue_sample(1.0, 0)
    report = c.finalize(10.0)
    assert report.avg_queue_len == 0.0
    assert report.peak_queue_len == 1


def test_decreasing_sample_time_rejected():
    c = MetricsCollector()
    c.record_queue_sample(2.0, 1)
    with pytest.raises(ValueError, match="time-ordered"):
        c.record_queue_sample(1.0, 2)


def test_time_weighted_matches_arithmetic_on_uniform_grid():
    # Constant length sampled on a uniform grid: the time-weighted mean must
    # equal the arithmetic mean of the samples.
    c = MetricsCollector()
    lengths = [3] * 11
    for i, length in enumerate(lengths):
        c.record_queue_sample(i * 1.0, length)
    report = c.finalize(10.0)
    assert report.avg_queue_len == pytest.approx(sum(lengths) / len(lengths))


def test_server_throughput_definitional_arithmetic():
    # Ten 512-byte messages enqueued over ten seconds, no acks.
    c = MetricsCollector()
    for _ in range(10):
        c.record_enqueued(512 * 8)
    report = c.finalize(10.0)
    assert report.avg_server_throughput_bps == pytest.approx(4096.0)


def test_client_throughput_is_work_rate():
    c = MetricsCollector()
    c.record_send()
    c.record_transmission(4096.0, first=True)
    c.add_source_busy(0.004096)
    report = c.finalize(10.0)
    assert report.avg_client_throughput_bps == pytest.approx(1_000_000.0)


def test_retransmissions_do_not_count_as_goodput():
    c = MetricsCollector()
    c.record_transmission(4096.0, first=True)
    c.record_transmission(4096.0, first=False)
    c.add_source_busy(0.004096 * 2)
    report = c.finalize(10.0)
    assert report.retransmissions == 1
    assert report.avg_client_throughput_bps == pytest.approx(500_000.0)


def test_zero_messages_all_zero_report():
    report = MetricsCollector().finalize(10.0)
    assert report.messages_sent == 0
    assert report.messages_delivered == 0
    assert report.avg_queue_len == 0.0
    assert report.avg_time_in_queue_s == 0.0
    assert report.conservation_residual() == 0


def test_wait_time_averages_delivered_only():
    c = MetricsCollector()
    c.record_consumed(1.0)
    c.record_consumed(3.0)
    c.record_replaced()  # replaced messages carry no wait time
    report = c.finalize(10.0)
    assert report.avg_time_in_queue_s == 2.0


def test_conservation_residual_and_in_transport():
    c = MetricsCollector()
    for _ in range(10):
        c.record_send()
    for _ in range(8):
        c.record_enqueued(8.0)
    for _ in range(6):
        c.record_consumed(0.0)
    c.record_replaced()
    c.record_loss()
    report = c.finalize(1.0, final_queue_len=1)
    # 10 sent = 6 consumed + 1 replaced + 1 lost + 1 queued + 1 in transport
    assert report.conservation_residual() == 1


def test_littles_law_on_deterministic_feed():
    # Synthetic D/D/1: one arrival every 0.2 s, each waiting exactly 0.1 s.
    # L = lambda * W = 5 * 0.1 = 0.5 with zero residual.
    c = MetricsCollector()
    n = 200
    for i in range(n):
        t = i * 0.2
        c.record_queue_sample(t, 1)
        c.record_queue_sample(t + 0.1, 0)
        c.record_consumed(0.1)
    duration = n * 0.2
    report = c.finalize(duration)
    rate = report.messages_delivered / duration
    assert littles_law_residual(report, rate) <= 0.05


def test_littles_law_zero_traffic():
    report = MetricsCollector().finalize(10.0)
    assert littles_law_residual(report, 0.0) == 0.0


def test_mean_report_averages_fields():
    a = MetricsCollector()
    a.record_send()
    a.record_enqueued(100.0)
    a.record_consumed(1.0)
    b = MetricsCollector()
    for _ in range(3):
        b.record_send()
    ra = a.finalize(10.0)
    rb = b.finalize(10.0)
    mean = mean_report([ra, rb])
    assert mean.messages_sent == 2.0
    assert mean.messages_delivered == 0.5
    assert mean.run_duration_s == 10.0


def test_mean_report_requires_input():
    with pytest.raises(ValueError):
        mean_report([])


def test_mean_report_preserves_conservation():
    reports = []
    for sent, consumed, queued in ((10, 9, 1), (10, 7, 3)):
        c = MetricsCollector()
        for _ in range(sent):
            c.record_send()
        for _ in range(consumed):
            c.record_enqueued(8.0)
            c.record_consumed(0.0)
        reports.append(c.finalize(1.0, final_queue_len=queued))
    assert all(r.conservation_residual() == 0 for r in reports)
    assert mean_report(reports).conservation_residual() == 0


def test_negative_duration_rejected():
    with pytest.raises(ValueError, match="run_duration_s"):
        MetricsCollector().finalize(-1.0)
