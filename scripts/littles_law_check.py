#!/usr/bin/env python3
"""Sanity-check the simulator against L = lambda * W.

Long stationary Poisson runs through an underloaded FIFO receiver should
satisfy Little's law to within a few percent; the residual column is the
relative gap. Large residuals would indicate broken queue accounting.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from uqsim.cli import run_guarded  # noqa: E402
from uqsim.engine import TransportKind  # noqa: E402
from uqsim.harness import ExperimentConfig, run_experiment  # noqa: E402
from uqsim.metrics import littles_law_residual  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--messages", type=int, default=12_000)
    parser.add_argument("--seed", type=int, default=80706)
    args = parser.parse_args()

    print(f"{'delay_s':>8} {'rho':>6} {'L':>9} {'rate*W':>9} {'residual':>9}")
    for delay in (0.033, 0.05, 0.1):
        config = ExperimentConfig(
            protocol=TransportKind.UDP,
            topology="one_to_one",
            packet_size_bytes=256,
            receiver_delay_s=delay,
            message_count=args.messages,
            run_duration_s=args.messages * 0.18,
            schedule="poisson",
            seed=args.seed,
        )
        report = run_experiment(config).report
        rate = report.messages_delivered / report.run_duration_s
        service = delay + config.udp_app_per_msg_s
        residual = littles_law_residual(report, rate)
        print(
            f"{delay:8.3f} {rate * service:6.3f} {report.avg_queue_len:9.5f} "
            f"{rate * report.avg_time_in_queue_s:9.5f} {residual:9.5f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(run_guarded(main))
