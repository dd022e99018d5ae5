"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds ``result-*.json`` files as ``run.py`` writes them to
``.bench_out/``.  For every workload and metric this prints both medians,
the relative change and the base's quartile spread, and marks an
end-to-end metric that got worse by more than its bound in BENCHMARK.json.
Results whose environment stamps differ (other than in the code identity)
are flagged: their timings are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

CODE_IDENTITY = {"git_commit", "source_sha256"}


def load(directory: str) -> tuple[dict, dict]:
    values = defaultdict(list)          # (workload, trace, metric) -> values
    stamps = {}
    for path in sorted(Path(directory).glob("result-*.json")):
        res = json.loads(path.read_text())
        stamps[path.name] = {k: v for k, v in res["stamp"].items() if k not in CODE_IDENTITY}
        for name, m in res["metrics"].items():
            values[(res["workload"], res["trace"], name)].append(m["value"])
    return values, stamps


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, base_stamps = load(argv[1])
    new, new_stamps = load(argv[2])
    distinct = {json.dumps(s, sort_keys=True) for s in (*base_stamps.values(), *new_stamps.values())}
    if len(distinct) > 1:
        print("WARNING: environment stamps differ; timings are not comparable:")
        for s in sorted(distinct):
            print("  " + s)
    worse = 0
    for key in sorted(set(base) & set(new)):
        workload, trace, name = key
        b, n = statistics.median(base[key]), statistics.median(new[key])
        spread = ""
        if len(base[key]) >= 2 and b:
            q = statistics.quantiles(base[key], n=4)
            spread = f"spread {(q[2] - q[0]) / abs(b):.3f}"
        change = (n - b) / abs(b) if b else 0.0
        mark = ""
        if name in bounds and not trace:
            sign = 1 if bounds[name]["better"] == "lower" else -1
            if sign * change > bounds[name]["bound"]:
                mark = "  WORSE than bound"
                worse += 1
        print(f"{workload:14s} {name:40s} {b:12.6g} -> {n:12.6g} ({change:+.3f}) {spread}{mark}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
