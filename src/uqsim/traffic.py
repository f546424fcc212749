"""Seeded traffic generation: 70% status, 30% command/event.

Kinds are drawn per message (Bernoulli), splitting the non-status share
evenly between command and event. Send times are either uniformly paced or
Poisson (exponential inter-arrivals with the same mean); both schedules fit
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

from .messages import Message, MessageKind, SenderId, TraceRecord

ScheduleKind = Literal["uniform", "poisson"]
SCHEDULES: tuple[str, ...] = get_args(ScheduleKind)

# Minimum spacing enforced between send times so event order is total.
TIME_EPSILON = 1e-9


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
        if self.message_count < 0:
            raise ValueError(f"message_count must be >= 0, got {self.message_count}")
        if self.packet_size_bytes <= 0:
            raise ValueError(
                f"packet_size_bytes must be positive, got {self.packet_size_bytes}"
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


class TrafficGenerator:
    """Stateful generator owning one RNG stream and one seq counter."""

    def __init__(self, config: TrafficConfig):
        config.validate()
        self.config = config
        self.rng = random.Random(config.seed)
        self._next_seq = 1

    def next_message(self, t_created: float = 0.0) -> Message:
        cfg = self.config
        msg = Message(
            seq=self._next_seq,
            sender=cfg.sender,
            kind=draw_kind(self.rng, cfg.p_status),
            size_bytes=cfg.packet_size_bytes,
            t_created=t_created,
        )
        self._next_seq += 1
        return msg


def generate_schedule(config: TrafficConfig) -> list[TraceRecord]:
    """Build the full (t_send, message) schedule for one stream.

    Uniform: t_i = i * window / count. Poisson: exponential gaps with the
    same mean, truncated at the window end; any tail messages are placed
    back-to-back (epsilon-separated) at the truncation point so the count is
    exact. Times are strictly increasing either way.
    """
    gen = TrafficGenerator(config)
    cfg = config
    n = cfg.message_count
    if n == 0:
        return []
    window = cfg.run_duration_s * cfg.send_window_fraction
    records: list[TraceRecord] = []
    if cfg.schedule == "uniform":
        gap = window / n
        prev = -1.0
        for i in range(n):
            t = i * gap
            if t <= prev:
                t = prev + TIME_EPSILON
            records.append((t, gen.next_message(t)))
            prev = t
    else:
        mean_gap = window / n
        t = 0.0
        prev = -1.0
        for _ in range(n):
            t += gen.rng.expovariate(1.0 / mean_gap)
            if t > window:
                t = window
            if t <= prev:
                t = prev + TIME_EPSILON
            records.append((t, gen.next_message(t)))
            prev = t
    return records

