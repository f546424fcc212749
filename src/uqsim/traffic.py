"""Seeded traffic generation: 70% status, 30% command/event.

Kinds are drawn per message (Bernoulli), splitting the non-status share
evenly between command and event. ``draw_schedule`` alone sets send
times, uniformly paced or Poisson (exponential gaps with the same mean),
inside ``run_duration_s * send_window_fraction`` so every message is sent
within the run with headroom for the receiver to drain.

Randomness is the stdlib Mersenne Twister (``random.Random``), which is
bit-stable across platforms. Stream seeds are derived from a label via
SHA-256 (see ``derive_seed``) so each (experiment, destination) pair owns an
independent, reproducible stream.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from math import inf
from typing import Literal, get_args

from .messages import MAX_SIZE_BYTES, Message, MessageKind, SenderId, TraceRecord

ScheduleKind = Literal["uniform", "poisson"]
SCHEDULES: tuple[str, ...] = get_args(ScheduleKind)

# Minimum spacing enforced between send times so event order is total.
TIME_EPSILON = 1e-9
# Most messages one stream may hold. A schedule is built in memory before the
# run starts; at this ceiling a destination takes about 0.3 GB.
MAX_MESSAGE_COUNT = 1_000_000

# One drawn send: its time and its kind.
Draw = tuple[float, MessageKind]


def derive_seed(*labels: object) -> int:
    """Map a label tuple to a 64-bit stream seed, stably across platforms."""
    text = "|".join(str(part) for part in labels)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(slots=True)
class TrafficConfig:
    message_count: int
    packet_size_bytes: int
    run_duration_s: float
    seed: int
    sender: SenderId = 0
    p_status: float = 0.70
    schedule: ScheduleKind = "uniform"
    send_window_fraction: float = 0.9

    def validate(self) -> None:
        if not 0 <= self.message_count <= MAX_MESSAGE_COUNT:
            raise ValueError(
                f"message_count must be in [0, {MAX_MESSAGE_COUNT}], got {self.message_count}"
            )
        if not 0 < self.packet_size_bytes <= MAX_SIZE_BYTES:
            raise ValueError(
                f"packet_size_bytes must be in [1, {MAX_SIZE_BYTES}], got {self.packet_size_bytes}"
            )
        if not 0.0 <= self.p_status <= 1.0:
            raise ValueError(f"p_status must be in [0, 1], got {self.p_status}")
        if not 0 < self.run_duration_s < inf:
            raise ValueError(
                f"run_duration_s must be positive and finite, got {self.run_duration_s}"
            )
        if not 0.0 < self.send_window_fraction <= 1.0:
            raise ValueError(
                "send_window_fraction must be in (0, 1], got "
                f"{self.send_window_fraction}"
            )
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")


def draw_kind(rng: random.Random, p_status: float) -> MessageKind:
    """One kind draw: status with p_status, else command/event 50/50."""
    u = rng.random()
    if u < p_status:
        return MessageKind.STATUS
    if u < p_status + (1.0 - p_status) / 2.0:
        return MessageKind.COMMAND
    return MessageKind.EVENT


def draw_schedule(config: TrafficConfig, slot: int = 0, slots: int = 1) -> list[Draw]:
    """Draw the (t_send, kind) sequence of one stream.

    Uniform: slot ``slot`` of ``slots`` streams sharing one round-robin grid,
    t_i = (i * slots + slot) * window / (n * slots). Poisson: exponential gaps
    with mean window / n, truncated at the window end; any tail messages are
    placed back-to-back (epsilon-separated) at the truncation point so the
    count is exact. Times are strictly increasing either way.
    """
    config.validate()
    n = config.message_count
    if n == 0:
        return []
    rng = random.Random(config.seed)
    window = config.run_duration_s * config.send_window_fraction
    uniform = config.schedule == "uniform"
    gap = window / (n * slots)
    mean_gap = window / n
    draws: list[Draw] = []
    t = 0.0
    prev = -1.0
    for i in range(n):
        if uniform:
            t = (i * slots + slot) * gap
        else:
            t += rng.expovariate(1.0 / mean_gap)
            if t > window:
                t = window
        if t <= prev:
            t = prev + TIME_EPSILON
        draws.append((t, draw_kind(rng, config.p_status)))
        prev = t
    return draws


def schedule_messages(config: TrafficConfig, draws: list[Draw]) -> list[TraceRecord]:
    """Fresh (t_send, message) records for drawn traffic, seq numbered from 1."""
    sender = config.sender
    size = config.packet_size_bytes
    return [(t, Message(seq, sender, kind, size, t)) for seq, (t, kind) in enumerate(draws, 1)]


def generate_schedule(config: TrafficConfig, slot: int = 0, slots: int = 1) -> list[TraceRecord]:
    """Build the full (t_send, message) schedule for one stream (see draw_schedule)."""
    return schedule_messages(config, draw_schedule(config, slot, slots))
