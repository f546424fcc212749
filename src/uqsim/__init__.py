"""Updatable-queue transport comparison: queue library, simulator, harness."""

from .engine import (
    LinkParams,
    ProcessingCosts,
    QueueMode,
    Receiver,
    SimClock,
    TcpModel,
    TransportKind,
    build_connection,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    SweepResult,
    run_experiment,
    run_sweep,
)
from .messages import Message, MessageKind
from .metrics import MetricsCollector, MetricsReport, littles_law_residual
from .queues import EnqueueOutcome, UpdatableQueue
from .traffic import TrafficConfig, TrafficGenerator, generate_schedule

__all__ = [
    "EnqueueOutcome",
    "ExperimentConfig",
    "ExperimentResult",
    "LinkParams",
    "Message",
    "MessageKind",
    "MetricsCollector",
    "MetricsReport",
    "ProcessingCosts",
    "QueueMode",
    "Receiver",
    "SimClock",
    "SweepResult",
    "TcpModel",
    "TrafficConfig",
    "TrafficGenerator",
    "TransportKind",
    "UpdatableQueue",
    "build_connection",
    "generate_schedule",
    "littles_law_residual",
    "run_experiment",
    "run_sweep",
]
