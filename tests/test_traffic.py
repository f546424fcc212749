import math
import random

import pytest

from uqsim.engine import TransportKind
from uqsim.harness import ExperimentConfig, cell_seed
from uqsim.messages import MessageKind, dump_trace, load_trace
from uqsim.traffic import (
    TrafficConfig,
    derive_seed,
    draw_kind,
    generate_schedule,
)


def cfg(**overrides) -> TrafficConfig:
    base = dict(
        message_count=1000,
        packet_size_bytes=512,
        run_duration_s=180.0,
        seed=42,
    )
    base.update(overrides)
    return TrafficConfig(**base)


def test_all_status_when_p_is_one():
    schedule = generate_schedule(cfg(p_status=1.0, message_count=500))
    assert all(m.kind is MessageKind.STATUS for _, m in schedule)


def test_no_status_when_p_is_zero():
    schedule = generate_schedule(cfg(p_status=0.0, message_count=500))
    assert not any(m.kind is MessageKind.STATUS for _, m in schedule)


def test_status_fraction_within_binomial_bound():
    # 0.70 +- 3.8 sigma for n = 10000 draws.
    n = 10_000
    rng = random.Random(42)
    kinds = [draw_kind(rng, 0.70) for _ in range(n)]
    fraction = sum(k is MessageKind.STATUS for k in kinds) / n
    sigma = math.sqrt(0.7 * 0.3 / n)
    assert abs(fraction - 0.70) <= 3.8 * sigma


def test_command_event_split_is_even():
    n = 20_000
    rng = random.Random(7)
    kinds = [draw_kind(rng, 0.70) for _ in range(n)]
    commands = sum(k is MessageKind.COMMAND for k in kinds)
    events = sum(k is MessageKind.EVENT for k in kinds)
    # Both should be near 0.15 * n; allow 5 sigma of binomial noise.
    sigma = math.sqrt(n * 0.15 * 0.85)
    assert abs(commands - 0.15 * n) <= 5 * sigma
    assert abs(events - 0.15 * n) <= 5 * sigma


def test_zero_count_gives_empty_schedule():
    assert len(generate_schedule(cfg(message_count=0))) == 0


def test_uniform_gap_matches_window():
    schedule = generate_schedule(cfg(schedule="uniform"))
    assert len(schedule) == 1000
    times = [t for t, _ in schedule]
    assert times[0] == 0.0
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(gap == pytest.approx(0.162, abs=1e-12) for gap in gaps)
    assert times[-1] == pytest.approx(0.162 * 999)


def test_same_seed_same_schedule():
    for kind in ("uniform", "poisson"):
        first = generate_schedule(cfg(schedule=kind))
        second = generate_schedule(cfg(schedule=kind))
        assert [(t, m.kind, m.seq) for t, m in first] == [
            (t, m.kind, m.seq) for t, m in second
        ]


def test_different_seed_differs():
    first = generate_schedule(cfg(schedule="poisson", seed=1))
    second = generate_schedule(cfg(schedule="poisson", seed=2))
    assert [t for t, _ in first] != [t for t, _ in second]


@pytest.mark.parametrize("schedule_kind", ["uniform", "poisson"])
@pytest.mark.parametrize("seed", [1, 7, 1234])
def test_exact_count_and_window(schedule_kind, seed):
    config = cfg(schedule=schedule_kind, seed=seed, message_count=800)
    schedule = generate_schedule(config)
    assert len(schedule) == 800
    window = config.run_duration_s * config.send_window_fraction
    assert all(0.0 <= t <= window for t, _ in schedule)


def test_times_strictly_increasing():
    for seed in (3, 5, 11):
        schedule = generate_schedule(cfg(schedule="poisson", seed=seed))
        times = [t for t, _ in schedule]
        assert all(b > a for a, b in zip(times, times[1:]))


def test_poisson_sends_do_not_pile_up_at_the_window_end():
    # Over 200 seeds of the default one-to-one cell, no seed may put more of
    # its 1000 sends in the window's last 1% than binomial(1000, 0.01) allows
    # at a 1e-6 tail: P(X > 29) = 2.1e-7. Clamping overflow to the window end
    # once put 117 there.
    most = 0
    for seed in range(200):
        cell = ExperimentConfig(
            protocol=TransportKind.UDP, seed=cell_seed(seed, "one_to_one", 512, 0.0)
        )
        config = cell.traffic()
        window = config.run_duration_s * config.send_window_fraction
        most = max(most, sum(t > 0.99 * window for t, _ in generate_schedule(config)))
    assert most <= 29


def test_seq_density():
    schedule = generate_schedule(cfg(message_count=500))
    assert [m.seq for _, m in schedule] == list(range(1, 501))


def test_sender_taken_from_config():
    schedule = generate_schedule(cfg(message_count=10, sender=9))
    assert all(m.sender == 9 for _, m in schedule)


def test_schedule_exports_to_trace_format(tmp_path):
    schedule = generate_schedule(cfg(message_count=50, schedule="poisson"))
    path = tmp_path / "schedule.trace"
    dump_trace(str(path), schedule)
    loaded = list(load_trace(str(path)))
    assert len(loaded) == 50
    for (t_in, m_in), (t_out, m_out) in zip(schedule, loaded):
        assert t_out == pytest.approx(t_in, abs=1e-9)
        assert (m_out.sender, m_out.seq, m_out.kind) == (m_in.sender, m_in.seq, m_in.kind)


def test_schedule_numbers_fresh_messages_from_one():
    for kind in ("uniform", "poisson"):
        schedule = generate_schedule(cfg(message_count=10, schedule=kind))
        (t0, first), (t1, second) = list(schedule)[:2]
        assert (first.seq, second.seq) == (1, 2)
        assert 0.0 <= t0 < t1
        assert [m.seq for _, m in schedule] == list(range(1, 11))


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed("a", 1) == derive_seed("a", 1)
    assert derive_seed("a", 1) != derive_seed("a", 2)
    assert 0 <= derive_seed("x") < 2**64


@pytest.mark.parametrize(
    "field,value,match",
    [
        ("message_count", -1, "message_count"),
        ("packet_size_bytes", 0, "packet_size_bytes"),
        ("p_status", 1.5, "p_status"),
        ("run_duration_s", 0.0, "run_duration_s"),
        ("send_window_fraction", 0.0, "send_window_fraction"),
        ("schedule", "burst", "schedule"),
    ],
)
def test_config_validation(field, value, match):
    with pytest.raises(ValueError, match=match):
        generate_schedule(cfg(**{field: value}))
