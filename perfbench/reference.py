"""Fixed CPU work, independent of fairaudit, that gauges the host's speed.

    python3 perfbench/reference.py

The benchmark runs this before and after every CLI run and reports the CLI's
time relative to it. On a shared virtual machine the speed of a core drifts by tens
of percent over minutes, and it slows this task and the CLI alike, so the
ratio stays steady where the raw times do not. The mix (dicts, string
formatting, sorting, exact fractions, JSON) resembles what the CLI does.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

ROWS = 30_000


def work() -> int:
    rng = random.Random(0)
    records = [
        {"id": f"u{i:06d}", "group": f"g{i % 4}", "score": rng.random()} for i in range(ROWS)
    ]
    counts: dict[tuple[str, bool], int] = {}
    for rec in records:
        key = (rec["group"], rec["score"] > 0.5)
        counts[key] = counts.get(key, 0) + 1
    records.sort(key=lambda rec: (rec["score"], rec["id"]))
    rates = [Fraction(n, ROWS) for n in counts.values()]
    gaps = max(abs(p - q) for p in rates for q in rates)
    return len(json.dumps(records[: ROWS // 4], sort_keys=True, indent=2)) + gaps.denominator


if __name__ == "__main__":
    print(work())
