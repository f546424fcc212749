#!/usr/bin/env python3
"""Run the full transport comparison and emit every results table.

Writes the 96-cell results CSV, the 32-row aggregate (averaged over packet
sizes), per-destination rows, and the eight figure CSVs into one output
directory. Rerunning with the same seed reproduces every file byte for byte.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from uqsim.cli import run_guarded  # noqa: E402
from uqsim.harness import (  # noqa: E402
    DEFAULT_MASTER_SEED,
    FIGURE_SPECS,
    check_jobs,
    run_sweep,
    sweep_rows,
    write_aggregate_csv,
    write_destination_csv,
    write_figure_csv,
    write_sweep_csv,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    check_jobs(args.jobs)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    sweep = run_sweep(master_seed=args.seed, jobs=args.jobs)
    elapsed = time.perf_counter() - start
    print(f"ran {len(sweep.results)} cells in {elapsed:.1f}s (seed {args.seed})")

    rows = sweep_rows(sweep)
    write_sweep_csv(str(out_dir / "sweep_results.csv"), sweep)
    write_aggregate_csv(str(out_dir / "sweep_aggregate.csv"), rows)
    write_destination_csv(str(out_dir / "sweep_destinations.csv"), sweep)
    for figure in sorted(FIGURE_SPECS):
        write_figure_csv(str(out_dir / f"figure_{figure:02d}.csv"), rows, figure)
    for path in sorted(out_dir.iterdir()):
        print(f"  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(run_guarded(main))
