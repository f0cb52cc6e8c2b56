"""Benchmark dithersim end to end (untraced) or per layer (traced).

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload figures --seed 0 --seconds 20 --trace 0

Workloads: figures, sweep, audit, series (see perfbench/workloads.py).
With --trace 0 the run reports the end-to-end metrics wall_s, wall_tail_s,
work_per_s, setup_s and peak_rss_mb, with every time scaled to a reference
host speed (see perfbench/harness.py); with --trace 1 it reports the
per-layer metrics of perfbench/tracing.py and the tracing overhead. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it list every metric with
its unit, failed_frac and the machine facts. The full record, with the
spans of the first traced iteration, is written to
.bench_results/<workload>-seed<seed>-trace<trace>.json.

dithersim is imported from src/ of the checkout. Without it the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("figures", "sweep", "audit", "series")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not 0 < args.seconds <= 600:
        parser.error("--seconds must be in (0, 600]")
    return args


def report_lines(record: dict) -> list[str]:
    """Notes, one `name value unit` line per metric, failed_frac and the machine."""
    lines = list(record["notes"])
    lines += [f"{name} {m['value']!r} {m['unit']}" for name, m in record["metrics"].items()]
    lines.append(f"failed_frac {record['failed_frac']!r} ratio")
    lines.append("machine " + json.dumps(record["machine"], sort_keys=True))
    return lines


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dithersim" / "__init__.py").is_file():
        print(f"perfbench: no dithersim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import harness

    record = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    path = harness.write_record(record)
    print("\n".join(report_lines(record)))
    print(f"record {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
