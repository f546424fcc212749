#!/usr/bin/env python3
"""Run the full transport comparison and emit every results table.

Runs ``uqsim sweep`` into one output directory: the 96-cell results CSV
(``sweep.csv``), the 32-row aggregate averaged over packet sizes
(``sweep_aggregate.csv``), per-destination rows (``sweep_destinations.csv``)
and the eight figure tables (``sweep_figure_06.csv`` ... ``sweep_figure_13.csv``).
Rerunning with the same seed reproduces every file byte for byte.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from uqsim import cli  # noqa: E402
from uqsim.harness import DEFAULT_MASTER_SEED, check_jobs  # noqa: E402


def main() -> int:
    parser = cli.CliParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    check_jobs(args.jobs)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    out = str(out_dir / "sweep.csv")
    status = cli.main(["sweep", "--seed", str(args.seed), "--jobs", str(args.jobs), "--out", out])
    elapsed = time.perf_counter() - start
    print(f"ran the sweep in {elapsed:.1f}s (seed {args.seed})")
    return status


if __name__ == "__main__":
    sys.exit(cli.run_guarded(main))
