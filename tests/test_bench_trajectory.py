"""``BENCH_trajectory.json``: the benchmark's medians, parent and change, for each checked change.

Every entry must carry a parent and a change median, with its unit, for each
end-to-end metric that ``BENCHMARK.json`` declares, on each of its
workloads, so the trend of every bounded number can be read across changes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("gain", "no gain")
VERDICTS = ("accepted", "refused", "pending")


def test_every_entry_has_every_end_to_end_metric_of_every_workload():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    trajectory = json.loads((ROOT / "BENCH_trajectory.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in benchmark["workloads"]]
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    entries = trajectory["entries"]
    assert entries
    numbers = [entry["pr"] for entry in entries]
    assert numbers == sorted(set(numbers))
    for entry in entries:
        assert entry["kind"] in KINDS
        assert entry["verdict"] in VERDICTS
        if entry["kind"] == "gain":
            assert entry["claim"]["metric"] in units
            assert entry["claim"]["workload"] in workloads
        else:
            assert entry["claim"] is None
        assert set(entry["workloads"]) == set(workloads)
        for workload in workloads:
            medians = entry["workloads"][workload]
            assert set(medians) == set(units), (entry["pr"], workload)
            for metric, unit in units.items():
                median = medians[metric]
                assert median["unit"] == unit
                for side in ("parent", "change"):
                    value = median[side]
                    assert isinstance(value, (int, float)) and not isinstance(value, bool)
                    assert math.isfinite(value) and value > 0, (entry["pr"], workload, metric)
