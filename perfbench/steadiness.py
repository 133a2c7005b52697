"""Re-record ``baseline.json``: two sets of ten seeded runs of every workload.

    python3 perfbench/steadiness.py

Runs one benchmark process at a time (``--trace 0``, seeds 1..10) over every
workload, then the same again as a second set.  For each set, workload and
metric it records the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median;
for each workload and metric it records how much worse the second set's
median is than the first's, as a share of the first.  These are the figures
the bounds in BENCHMARK.json are set against.  Runs whose output check failed
are listed with their seeds; their timings are kept.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, cap_blas_threads, git_commit, provenance

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BASELINE_PATH = Path(__file__).with_name("baseline.json")
SETS = 2
SEEDS = range(1, 11)


def run_once(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
           "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def run_set(workloads: list, bounds: dict) -> dict:
    summary = {}
    for workload in workloads:
        results, incorrect = [], []
        for seed in SEEDS:
            res = run_once(workload, seed)
            results.append(res)
            if not res["correct"]:
                # the timings still count; the failure is reported, not hidden
                incorrect.append({"seed": seed, "attempted": res["attempted"],
                                  "failed": res["failed"]})
            shown = " ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items())
            print(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']} "
                  f"{shown}", flush=True)
        summary[workload] = {"incorrect_runs": incorrect, "metrics": {}}
        for name, m in results[0]["metrics"].items():
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["unit"] = m["unit"]
            summary[workload]["metrics"][name] = stats
            flag = "" if stats["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {workload} {name}: median {stats['median']:.4g} {m['unit']} "
                  f"spread {stats['spread']:.3f} (bound {bounds[name]}){flag}", flush=True)
    return summary


def main() -> int:
    cap_blas_threads()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    better = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    sets = [run_set(workloads, bounds) for _ in range(SETS)]

    drift = {}
    for workload in workloads:
        drift[workload] = {}
        for name in bounds:
            first, second = (s[workload]["metrics"][name]["median"] for s in sets)
            worse = (second - first) / first if better[name] == "lower" else (first - second) / first
            drift[workload][name] = worse
            flag = "" if worse <= bounds[name] else "  <-- beyond bound"
            print(f"{workload} {name}: second set worse by {worse:+.3f} "
                  f"(bound {bounds[name]}){flag}", flush=True)
    doc = {"commit": git_commit(), "provenance": provenance(), "seeds": list(SEEDS),
           "second_set_worse_by": drift, "sets": sets}
    BASELINE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
