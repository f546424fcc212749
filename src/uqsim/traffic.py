"""Seeded traffic generation: 70% status, 30% command/event.

Kinds are drawn per message (Bernoulli), splitting the non-status share
evenly between command and event. ``generate_schedule`` alone sets send
times, uniformly paced or Poisson with the same mean rate, inside the window
``run_duration_s * send_window_fraction`` so every message is sent within
the run with headroom for the receiver to drain.

Randomness is the stdlib Mersenne Twister (``random.Random``), which is
bit-stable across platforms. Stream seeds are derived from a label via
SHA-256 (see ``derive_seed``) so each (experiment, destination) pair owns an
independent, reproducible stream.
"""

from __future__ import annotations

import random
import sys
from array import array
from math import ulp
from typing import Collection, Iterator, Literal, NamedTuple, get_args

from .messages import MAX_MESSAGE_COUNT, MAX_SIZE_BYTES, Message, MessageKind, SenderId, TraceRecord

ScheduleKind = Literal["uniform", "poisson"]
SCHEDULES: tuple[str, ...] = get_args(ScheduleKind)

# Closed ends for "positive" and "finite" float settings.
POSITIVE = ulp(0.0)
FINITE = sys.float_info.max


def check_range(name: str, value: float, low: float, high: float, rule: str) -> None:
    """The one single-setting bound: ``low <= value <= high``; NaN breaks every rule."""
    if not low <= value <= high:
        raise ValueError(f"{name} must be {rule}, got {value}")


def check_choice(name: str, value: object, choices: Collection[object]) -> None:
    """The one named-choice rule: ``value`` is one of ``choices``."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {tuple(choices)}, got {value!r}")


def derive_seed(*labels: object) -> int:
    """Map a label tuple to a 64-bit stream seed, stably across platforms."""
    import hashlib  # OpenSSL loads at the first seed, not when a replay or --help starts
    text = "|".join(str(part) for part in labels)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class TrafficConfig(NamedTuple):
    message_count: int
    packet_size_bytes: int
    run_duration_s: float
    seed: int
    sender: SenderId = 0
    p_status: float = 0.70
    schedule: ScheduleKind = "poisson"
    send_window_fraction: float = 0.9

    def validate(self) -> None:
        check_range("message_count", self.message_count, 0, MAX_MESSAGE_COUNT,
                    f"in [0, {MAX_MESSAGE_COUNT}]")
        check_range("packet_size_bytes", self.packet_size_bytes, 1, MAX_SIZE_BYTES,
                    f"in [1, {MAX_SIZE_BYTES}]")
        check_range("p_status", self.p_status, 0.0, 1.0, "in [0, 1]")
        check_range("run_duration_s", self.run_duration_s, POSITIVE, FINITE,
                    "positive and finite")
        check_range("send_window_fraction", self.send_window_fraction, POSITIVE, 1.0,
                    "in (0, 1]")
        check_choice("schedule", self.schedule, SCHEDULES)


def draw_kind(rng: random.Random, p_status: float) -> MessageKind:
    """One kind draw: status with p_status, else command/event 50/50."""
    u = rng.random()
    if u < p_status:
        return MessageKind.STATUS
    if u < p_status + (1.0 - p_status) / 2.0:
        return MessageKind.COMMAND
    return MessageKind.EVENT


class Schedule:
    """One stream's records as two columns: send times and their messages.

    ``times`` is an ``array('d')``, so a send time takes 8 bytes instead of a
    float object and a tuple per record. Iterating yields the (t_send,
    message) records in send order; ``len`` counts them.
    """

    __slots__ = ("times", "messages")

    def __init__(self, times: array, messages: list[Message]) -> None:
        self.times = times
        self.messages = messages

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self) -> Iterator[TraceRecord]:
        return zip(self.times, self.messages)


def generate_schedule(config: TrafficConfig, slot: int = 0, slots: int = 1) -> Schedule:
    """Draw and build one stream's (t_send, message) records, seq numbered from 1.

    Uniform: slot ``slot`` of ``slots`` streams sharing one round-robin grid,
    t_i = (i * slots + slot) * window / (n * slots). Poisson: n sorted iid
    uniforms on the window; given n arrivals in a window, these are exactly
    the arrival times of a Poisson process (Ross, Introduction to Probability
    Models, ch. 5). Either way times are non-decreasing and lie in
    [0, window]. Kinds are then drawn in time order, as each message is built.
    """
    config.validate()
    n = config.message_count
    if n == 0:
        return Schedule(array("d"), [])
    rng = random.Random(config.seed)
    window = config.run_duration_s * config.send_window_fraction
    if config.schedule == "uniform":
        gap = window / (n * slots)
        times = array("d", ((i * slots + slot) * gap for i in range(n)))
    else:
        times = array("d", sorted([rng.random() * window for _ in range(n)]))
    sender, size, p_status = config.sender, config.packet_size_bytes, config.p_status
    return Schedule(times, [Message(seq, sender, draw_kind(rng, p_status), size)
                            for seq in range(1, n + 1)])
